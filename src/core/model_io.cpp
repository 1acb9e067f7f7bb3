#include "core/model_io.h"

#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/scorer.h"
#include "io/env.h"

namespace hdd::core {

namespace {

io::Env& resolve(io::Env* env) {
  return env != nullptr ? *env : io::Env::posix();
}

// Whole-file read/write through the Env: models are small (KBs), so the
// streaming formats parse from / serialize into memory and the Env only
// ever sees one read or one write per file.
std::string read_all(const std::string& path, io::Env* env) {
  std::string data;
  const auto s = resolve(env).read_file(path, data);
  HDD_REQUIRE(s.ok(), "cannot open for reading: " + path);
  return data;
}

void write_all(const std::string& path, const std::string& data,
               io::Env* env) {
  const auto s = resolve(env).write_file(path, data, /*sync=*/false);
  HDD_REQUIRE(s.ok(), "cannot open for writing: " + path);
}

// Applies the configured verify mode to a freshly loaded model. kWarn
// logs every diagnostic; kStrict additionally rejects on errors, so a
// semantically broken model never reaches scoring.
void verify_loaded(const AnyModel& m, const LoadOptions& options,
                   const std::string& model_path) {
  if (options.verify == VerifyMode::kOff) return;
  analysis::VerifyOptions vo;
  vo.domains = options.domains;
  const auto report = verify_model(m, vo, model_path);
  for (const auto& d : report.diagnostics) {
    const auto level = d.severity == analysis::Severity::kError
                           ? LogLevel::kError
                           : (d.severity == analysis::Severity::kWarning
                                  ? LogLevel::kWarn
                                  : LogLevel::kInfo);
    log_message(level, std::string("model verifier: [") + d.code + "] " +
                           d.model_path + ": " + d.location + ": " +
                           d.message);
  }
  if (options.verify == VerifyMode::kStrict && report.has_errors()) {
    const auto errors = report.count(analysis::Severity::kError);
    std::string first;
    for (const auto& d : report.diagnostics) {
      if (d.severity == analysis::Severity::kError) {
        first = "[" + d.code + "] " + d.location + ": " + d.message;
        break;
      }
    }
    throw DataError("model rejected by strict verification (" +
                    std::to_string(errors) + " error(s); first: " + first +
                    ")");
  }
}

}  // namespace

void save_tree(const tree::DecisionTree& tree, std::ostream& os) {
  tree.save(os);
}

void save_tree_file(const tree::DecisionTree& tree, const std::string& path,
                    io::Env* env) {
  std::ostringstream os;
  save_tree(tree, os);
  write_all(path, std::move(os).str(), env);
}

tree::DecisionTree load_tree(std::istream& is, const LoadOptions& options) {
  auto tree = tree::DecisionTree::load(is);
  if (options.verify != VerifyMode::kOff) {
    AnyModel m = std::move(tree);
    verify_loaded(m, options, "tree");
    return std::get<tree::DecisionTree>(std::move(m));
  }
  return tree;
}

tree::DecisionTree load_tree_file(const std::string& path,
                                  const LoadOptions& options, io::Env* env) {
  std::istringstream is(read_all(path, env));
  auto tree = tree::DecisionTree::load(is);
  if (options.verify != VerifyMode::kOff) {
    AnyModel m = std::move(tree);
    verify_loaded(m, options, path);
    return std::get<tree::DecisionTree>(std::move(m));
  }
  return tree;
}

const char* model_kind_name(const AnyModel& m) {
  if (std::holds_alternative<tree::DecisionTree>(m)) return "tree";
  if (std::holds_alternative<forest::RandomForest>(m)) return "forest";
  return "mlp";
}

int model_num_features(const AnyModel& m) {
  return std::visit([](const auto& model) { return model.num_features(); },
                    m);
}

AnyModel load_model(std::istream& is, const LoadOptions& options) {
  // Sniff the header line, then hand the stream back to the format's own
  // loader (each re-reads its header). Requires a seekable stream, which
  // files and string streams are.
  const auto start = is.tellg();
  HDD_REQUIRE(start != std::istream::pos_type(-1),
              "load_model needs a seekable stream");
  std::string header;
  if (!std::getline(is, header)) throw DataError("empty model stream");
  is.clear();
  is.seekg(start);

  AnyModel m = [&]() -> AnyModel {
    if (header == "hddpred-tree v1") return tree::DecisionTree::load(is);
    if (header == "hddpred-forest v1") return forest::RandomForest::load(is);
    if (header == "hddpred-mlp v1") return ann::MlpModel::load(is);
    throw DataError("unknown model header: " + header);
  }();
  verify_loaded(m, options, std::string(model_kind_name(m)));
  return m;
}

AnyModel load_model_file(const std::string& path, const LoadOptions& options,
                         io::Env* env) {
  std::istringstream is(read_all(path, env));
  // Sniff + dispatch here (not via load_model) so diagnostics carry the
  // file path instead of a generic kind name.
  LoadOptions off = options;
  off.verify = VerifyMode::kOff;
  AnyModel m = load_model(is, off);
  verify_loaded(m, options, path);
  return m;
}

analysis::Report verify_model(const AnyModel& m,
                              const analysis::VerifyOptions& options,
                              const std::string& model_path) {
  if (const auto* tree = std::get_if<tree::DecisionTree>(&m)) {
    return analysis::verify_tree(*tree, options, model_path);
  }
  if (const auto* forest = std::get_if<forest::RandomForest>(&m)) {
    return analysis::verify_forest(*forest, options, model_path);
  }
  return analysis::verify_mlp(std::get<ann::MlpModel>(m), options,
                              model_path);
}

std::unique_ptr<SampleScorer> make_model_scorer(AnyModel m) {
  if (auto* tree = std::get_if<tree::DecisionTree>(&m)) {
    return make_tree_scorer(std::move(*tree));
  }
  if (auto* forest = std::get_if<forest::RandomForest>(&m)) {
    return make_forest_scorer(std::move(*forest));
  }
  return make_mlp_scorer(std::move(std::get<ann::MlpModel>(m)));
}

std::unique_ptr<SampleScorer> load_generation_model(
    const std::string& model_text) {
  std::istringstream is(model_text);
  LoadOptions off;
  off.verify = VerifyMode::kOff;
  return make_model_scorer(load_model(is, off));
}

void save_scorer_file(const SampleScorer& scorer, const std::string& path,
                      io::Env* env) {
  std::ostringstream os;
  scorer.save(os);
  write_all(path, std::move(os).str(), env);
}

}  // namespace hdd::core
