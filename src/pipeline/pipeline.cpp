#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "data/training.h"
#include "eval/detection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/telemetry_store.h"

namespace hdd::pipeline {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kNone: return "none";
    case Outcome::kPromoted: return "promoted";
    case Outcome::kRejectedLint: return "rejected-lint";
    case Outcome::kRejectedGuardrail: return "rejected-guardrail";
    case Outcome::kRejectedNoData: return "rejected-no-data";
    case Outcome::kRejectedTrainFailed: return "rejected-train-failed";
    case Outcome::kSkipped: return "skipped";
  }
  return "?";
}

void PipelineMetrics::record(Outcome o) const {
  if (cycles == nullptr) return;
  if (o != Outcome::kSkipped && o != Outcome::kNone) cycles->inc();
  switch (o) {
    case Outcome::kPromoted: promotions->inc(); break;
    case Outcome::kRejectedLint: rej_lint->inc(); break;
    case Outcome::kRejectedGuardrail: rej_guardrail->inc(); break;
    case Outcome::kRejectedNoData: rej_no_data->inc(); break;
    case Outcome::kRejectedTrainFailed: rej_train_failed->inc(); break;
    case Outcome::kNone:
    case Outcome::kSkipped:
      break;
  }
}

PipelineMetrics make_pipeline_metrics(obs::Registry* registry) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::global();
  PipelineMetrics m;
  m.cycles = &reg.counter("hdd_pipeline_retrain_cycles_total",
                          "Retrain cycles that trained a candidate.");
  m.promotions = &reg.counter("hdd_pipeline_promotions_total",
                              "Candidates promoted to the live scorer.");
  const char* rej_name = "hdd_pipeline_rejections_total";
  const char* rej_help = "Candidates rejected, by gate.";
  m.rej_lint = &reg.counter(rej_name, rej_help, {{"reason", "lint"}});
  m.rej_guardrail =
      &reg.counter(rej_name, rej_help, {{"reason", "guardrail"}});
  m.rej_no_data = &reg.counter(rej_name, rej_help, {{"reason", "no_data"}});
  m.rej_train_failed =
      &reg.counter(rej_name, rej_help, {{"reason", "train_failed"}});
  m.generation = &reg.gauge("hdd_pipeline_generation",
                            "Live model generation (0 = seed model).");
  return m;
}

namespace {

std::string first_finding(const analysis::Report& report) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity != analysis::Severity::kNote) {
      return d.code + " at " + d.location + ": " + d.message;
    }
  }
  return "verifier finding";
}

}  // namespace

GateResult train_and_gate(std::vector<smart::DriveRecord> goods,
                          const std::vector<smart::DriveRecord>& failed_pool,
                          int window_weeks, const PipelineConfig& config) {
  GateResult res;

  // Deterministic held-back split of both pools: the same seed always
  // carves the same validation slice, so a rejected candidate re-trained
  // on the same window is judged against the same data.
  Rng rng(config.seed);
  const auto fperm = rng.permutation(failed_pool.size());
  const auto gperm = rng.permutation(goods.size());
  const auto n_train_failed = static_cast<std::size_t>(std::round(
      static_cast<double>(failed_pool.size()) * config.train_fraction));
  const auto n_train_good = static_cast<std::size_t>(std::round(
      static_cast<double>(goods.size()) * config.train_fraction));

  const std::string family = "pipeline";
  data::DriveDataset train_ds;
  train_ds.family_names = {family};
  data::DatasetSplit train_split;
  for (std::size_t i = 0; i < n_train_good; ++i) {
    auto& g = goods[gperm[i]];
    if (g.empty()) continue;
    train_split.good_drives.push_back(train_ds.drives.size());
    train_split.good_test_begin.push_back(g.samples.size());  // all train
    train_ds.drives.push_back(std::move(g));
  }
  for (std::size_t k = 0; k < n_train_failed; ++k) {
    train_split.train_failed.push_back(train_ds.drives.size());
    train_ds.drives.push_back(failed_pool[fperm[k]]);
  }
  if (train_split.good_drives.empty() || train_split.train_failed.empty()) {
    res.outcome = Outcome::kRejectedNoData;
    res.reason = train_split.good_drives.empty()
                     ? "training window holds no good samples"
                     : "no failed drives in the training split";
    return res;
  }

  data::TrainingConfig tc = config.trainer.training;
  // Keep the per-week good sampling density constant as windows grow
  // (matches update::simulate_long_term).
  tc.good_samples_per_drive =
      config.trainer.training.good_samples_per_drive *
      std::max(1, window_weeks);
  std::unique_ptr<core::SampleScorer> scorer;
  std::size_t rows = 0;
  try {
    const obs::ScopedSpan train_span("pipeline.train");
    const auto matrix = data::build_training_matrix(train_ds, train_split, tc);
    rows = matrix.rows();
    scorer = core::fit_scorer(config.trainer, matrix);
  } catch (const std::exception& e) {
    res.outcome = Outcome::kRejectedTrainFailed;
    res.reason = e.what();
    return res;
  }
  res.train_rows = rows;

  const obs::ScopedSpan gate_span("pipeline.gate");

  // Gate 1: the static verifier. Tree-backed candidates are linted; other
  // backends have their own verifier run at load time and pass through
  // here (the guardrail still protects them).
  if (config.guardrail.require_lint_clean) {
    if (const tree::DecisionTree* t = scorer->tree()) {
      const auto report =
          analysis::verify_tree(*t, config.verify, "candidate");
      if (report.has_findings()) {
        res.outcome = Outcome::kRejectedLint;
        res.reason = first_finding(report);
        return res;
      }
    }
  }

  // Gate 2: FAR/FDR rails on the held-back validation slice.
  data::DriveDataset val_ds;
  val_ds.family_names = {family};
  data::DatasetSplit val_split;
  for (std::size_t i = n_train_good; i < goods.size(); ++i) {
    auto& g = goods[gperm[i]];
    if (g.empty()) continue;
    val_split.good_drives.push_back(val_ds.drives.size());
    val_split.good_test_begin.push_back(0);  // the whole window is test data
    val_ds.drives.push_back(std::move(g));
  }
  for (std::size_t k = n_train_failed; k < failed_pool.size(); ++k) {
    if (failed_pool[fperm[k]].empty()) continue;
    val_split.test_failed.push_back(val_ds.drives.size());
    val_ds.drives.push_back(failed_pool[fperm[k]]);
  }
  const core::SampleScorer* raw = scorer.get();
  const auto result = eval::evaluate_batch(
      val_ds, val_split, tc.features,
      [raw](std::span<const float> xs, std::span<double> out) {
        raw->predict_batch(xs, out);
      },
      config.trainer.vote);
  res.val_far = result.far();
  res.val_fdr = result.fdr();
  // A rail is only meaningful when its side of the validation slice holds
  // drives to measure it on.
  if (result.n_good > 0 && res.val_far > config.guardrail.max_far) {
    res.outcome = Outcome::kRejectedGuardrail;
    std::ostringstream os;
    os << "validation FAR " << res.val_far << " > max_far "
       << config.guardrail.max_far;
    res.reason = os.str();
    return res;
  }
  if (result.n_failed > 0 && res.val_fdr < config.guardrail.min_fdr) {
    res.outcome = Outcome::kRejectedGuardrail;
    std::ostringstream os;
    os << "validation FDR " << res.val_fdr << " < min_fdr "
       << config.guardrail.min_fdr;
    res.reason = os.str();
    return res;
  }

  res.outcome = Outcome::kPromoted;
  res.candidate = std::shared_ptr<const core::SampleScorer>(std::move(scorer));
  return res;
}

std::shared_ptr<const core::SampleScorer> load_generation_model(
    const std::string& model_text) {
  std::istringstream is(model_text);
  // The model was linted at promotion time; a strict re-verify here could
  // wedge resume on a rule added since, so load as-is.
  core::LoadOptions load;
  load.verify = core::VerifyMode::kOff;
  return core::make_model_scorer(core::load_model(is, load));
}

UpdatePipeline::UpdatePipeline(core::SwappableScorer& scorer,
                               store::TelemetryStore& store,
                               std::vector<smart::DriveRecord> failed_pool,
                               PipelineConfig config)
    : scorer_(&scorer),
      store_(&store),
      failed_(std::move(failed_pool)),
      config_(std::move(config)),
      scheduler_(config_.scheduler),
      metrics_(make_pipeline_metrics(config_.metrics)) {
  metrics_.generation->set(static_cast<double>(scorer_->generation()));
}

CycleResult UpdatePipeline::run_cycle(bool force) {
  const obs::ScopedSpan span("pipeline.cycle");
  CycleResult r;
  r.generation = scorer_->generation();
  const std::uint64_t total = store_->sample_count();
  const std::int64_t last = store_->last_hour();
  if (!force && !scheduler_.due(total, last)) {
    r.outcome = Outcome::kSkipped;
    return r;
  }
  const auto window = scheduler_.window_hours(std::max<std::int64_t>(last, 0));
  const int weeks = static_cast<int>((window.second - window.first) / 168);
  auto gate = train_and_gate(
      store_->read_window(window.first, window.second - 1), failed_, weeks,
      config_);
  scheduler_.mark(total, last);
  r.outcome = gate.outcome;
  r.val_far = gate.val_far;
  r.val_fdr = gate.val_fdr;
  r.reason = std::move(gate.reason);
  metrics_.record(r.outcome);
  if (r.outcome == Outcome::kPromoted) {
    std::ostringstream os;
    gate.candidate->save(os);
    const std::uint64_t next_gen = scorer_->generation() + 1;
    // Journal-first promotion: once the record is durable the swap is a
    // formality — a crash between the two resumes to `next_gen`.
    store_->append_generation(next_gen, os.str());
    scorer_->swap(std::move(gate.candidate), next_gen);
    metrics_.generation->set(static_cast<double>(next_gen));
    r.generation = next_gen;
    log_debug() << "pipeline: promoted generation " << next_gen
                << " (val FAR " << r.val_far << ", FDR " << r.val_fdr << ")";
  } else if (r.outcome != Outcome::kSkipped) {
    log_debug() << "pipeline: candidate " << outcome_name(r.outcome) << ": "
                << r.reason;
  }
  last_ = r;
  return r;
}

}  // namespace hdd::pipeline
