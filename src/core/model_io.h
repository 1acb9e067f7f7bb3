// Model persistence: line-oriented text formats so a trained predictor can
// be shipped to the monitoring hosts, plus verify-on-load.
//
// Formats (discriminated by their first line):
//   hddpred-tree v1    — decision trees (format detailed below)
//   hddpred-forest v1  — random forests (forest/random_forest.h)
//   hddpred-mlp v1     — BP ANN (ann/mlp.h)
//
// Tree format:
//   hddpred-tree v1
//   task <classification|regression>
//   features <n>
//   nodes <count>
//   <left> <right> <feature> <threshold> <value> <weight> <count> <gain>
//   ... one line per node, preorder, root first ...
//
// Every load runs the static verifier (analysis/verifier.h) over the
// deserialized model by default: kWarn logs the diagnostics and returns
// the model anyway, kStrict throws DataError when the verifier finds an
// error-severity defect (unreachable leaf, dead split, out-of-range leaf
// value, non-finite weight), kOff skips verification — for callers that
// lint explicitly, like `hddpredict lint`.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <variant>

#include "analysis/verifier.h"
#include "ann/mlp.h"
#include "forest/random_forest.h"
#include "tree/tree.h"

namespace hdd::io {
class Env;
}  // namespace hdd::io

namespace hdd::core {

class SampleScorer;

enum class VerifyMode { kOff, kWarn, kStrict };

struct LoadOptions {
  VerifyMode verify = VerifyMode::kWarn;
  // Starting box for the verifier's interval analysis; unbounded when
  // empty (see analysis::FeatureDomains::for_feature_set for the SMART
  // attribute domains).
  analysis::FeatureDomains domains;
};

// The *_file functions route all filesystem access through `env`
// (nullptr = io::Env::posix()), so model persistence participates in the
// same fault-injection and retry discipline as the telemetry store.
void save_tree(const tree::DecisionTree& tree, std::ostream& os);
void save_tree_file(const tree::DecisionTree& tree, const std::string& path,
                    io::Env* env = nullptr);

// Throws DataError on malformed input, and in strict mode on a model the
// verifier flags with an error.
tree::DecisionTree load_tree(std::istream& is, const LoadOptions& options = {});
tree::DecisionTree load_tree_file(const std::string& path,
                                  const LoadOptions& options = {},
                                  io::Env* env = nullptr);

// Any persisted model, discriminated by its header line.
using AnyModel =
    std::variant<tree::DecisionTree, forest::RandomForest, ann::MlpModel>;

// "tree" / "forest" / "mlp".
const char* model_kind_name(const AnyModel& m);
int model_num_features(const AnyModel& m);

// Sniffs the header line and loads whichever model the stream holds.
// Throws DataError on unknown headers or malformed bodies, and in strict
// mode on verifier errors.
AnyModel load_model(std::istream& is, const LoadOptions& options = {});
AnyModel load_model_file(const std::string& path,
                         const LoadOptions& options = {},
                         io::Env* env = nullptr);

// Runs the static verifier appropriate to the model kind.
analysis::Report verify_model(const AnyModel& m,
                              const analysis::VerifyOptions& options = {},
                              const std::string& model_path = "model");

// Wraps any loaded model behind the scorer interface.
std::unique_ptr<SampleScorer> make_model_scorer(AnyModel m);

// Turns a journaled generation record's model text (SampleScorer::save
// output) back into a scorer: the one restore path for promoted models.
// The model was linted when it was promoted, and a strict re-verify could
// wedge a restart on a rule added since, so it loads unverified. Throws
// DataError on malformed text.
std::unique_ptr<SampleScorer> load_generation_model(
    const std::string& model_text);

// Persists a trained scorer in its native format (SampleScorer::save);
// throws ConfigError for backends without one (AdaBoost).
void save_scorer_file(const SampleScorer& scorer, const std::string& path,
                      io::Env* env = nullptr);

}  // namespace hdd::core
