#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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

HoldoutSplit holdout_split(std::vector<smart::DriveRecord> train_goods,
                           std::vector<smart::DriveRecord> val_goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           std::span<const std::size_t> train_failed,
                           std::span<const std::size_t> val_failed,
                           const std::string& family) {
  HoldoutSplit h;
  h.train_ds.family_names = {family};
  h.val_ds.family_names = {family};
  for (auto& g : train_goods) {
    if (g.empty()) continue;
    h.train.good_drives.push_back(h.train_ds.drives.size());
    h.train.good_test_begin.push_back(g.samples.size());  // all train
    h.train_ds.drives.push_back(std::move(g));
  }
  for (const std::size_t i : train_failed) {
    h.train.train_failed.push_back(h.train_ds.drives.size());
    h.train_ds.drives.push_back(failed_pool[i]);
  }
  for (auto& g : val_goods) {
    if (g.empty()) continue;
    h.val.good_drives.push_back(h.val_ds.drives.size());
    h.val.good_test_begin.push_back(0);  // the whole window is test data
    h.val_ds.drives.push_back(std::move(g));
  }
  for (const std::size_t i : val_failed) {
    if (failed_pool[i].empty()) continue;
    h.val.test_failed.push_back(h.val_ds.drives.size());
    h.val_ds.drives.push_back(failed_pool[i]);
  }
  return h;
}

CycleResult train_and_gate(std::vector<smart::DriveRecord> goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           int window_weeks, const PipelineConfig& config) {
  CycleResult res;

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
  std::vector<smart::DriveRecord> train_goods, val_goods;
  for (std::size_t i = 0; i < goods.size(); ++i) {
    (i < n_train_good ? train_goods : val_goods)
        .push_back(std::move(goods[gperm[i]]));
  }
  const std::span<const std::size_t> failed_order(fperm);
  const HoldoutSplit split = holdout_split(
      std::move(train_goods), std::move(val_goods), failed_pool,
      failed_order.first(n_train_failed), failed_order.subspan(n_train_failed),
      "pipeline");
  if (split.train.good_drives.empty() || split.train.train_failed.empty()) {
    res.outcome = Outcome::kRejectedNoData;
    res.reason = split.train.good_drives.empty()
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
    const auto matrix =
        data::build_training_matrix(split.train_ds, split.train, tc);
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
  const core::SampleScorer* raw = scorer.get();
  const auto result = eval::evaluate_batch(
      split.val_ds, split.val, tc.features,
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

UpdatePipeline::UpdatePipeline(core::SwappableScorer& scorer,
                               store::TelemetryStore& store,
                               std::vector<smart::DriveRecord> failed_pool,
                               PipelineConfig config)
    : UpdatePipeline({Target{&store, &scorer}},
                     [](std::size_t, const std::function<void()>& step) {
                       step();
                       return true;
                     },
                     std::move(failed_pool), std::move(config)) {}

UpdatePipeline::UpdatePipeline(std::vector<Target> targets,
                               RunOnTarget run_on,
                               std::vector<smart::DriveRecord> failed_pool,
                               PipelineConfig config)
    : targets_(std::move(targets)),
      run_on_(std::move(run_on)),
      failed_(std::move(failed_pool)),
      config_(std::move(config)),
      scheduler_(config_.scheduler) {
  HDD_REQUIRE(!targets_.empty(), "update pipeline needs a target");
  obs::Registry& reg = config_.metrics != nullptr ? *config_.metrics
                                                  : obs::Registry::global();
  m_cycles_ = &reg.counter("hdd_pipeline_retrain_cycles_total",
                           "Retrain cycles that trained a candidate.");
  m_promotions_ = &reg.counter("hdd_pipeline_promotions_total",
                               "Candidates promoted to the live scorer.");
  const char* reasons[] = {"lint", "guardrail", "no_data", "train_failed"};
  for (std::size_t i = 0; i < m_rejections_.size(); ++i) {
    m_rejections_[i] =
        &reg.counter("hdd_pipeline_rejections_total",
                     "Candidates rejected, by gate.", {{"reason", reasons[i]}});
  }
  m_generation_ = &reg.gauge("hdd_pipeline_generation",
                             "Live model generation (0 = seed model).");
  m_generation_->set(static_cast<double>(generation()));
}

std::uint64_t UpdatePipeline::generation() const {
  std::uint64_t g = 0;
  for (const Target& t : targets_) g = std::max(g, t.scorer->generation());
  return g;
}

CycleResult UpdatePipeline::run_cycle(bool force) {
  const obs::ScopedSpan span("pipeline.cycle");
  CycleResult r = gate(force);
  if (r.outcome == Outcome::kSkipped) return r;
  if (r.candidate != nullptr) r.generation = promote(std::move(r.candidate));
  last_ = r;
  return r;
}

CycleResult UpdatePipeline::gate(bool force) {
  std::uint64_t total = 0;
  std::int64_t last = -1;
  {
    const obs::ScopedSpan span("pipeline.watermarks");
    for (std::size_t k = 0; k < targets_.size(); ++k) {
      (void)run_on_(k, [&] {
        total += targets_[k].store->sample_count();
        last = std::max(last, targets_[k].store->last_hour());
      });
    }
  }
  if (!force && !scheduler_.due(total, last)) {
    CycleResult r;
    r.outcome = Outcome::kSkipped;
    r.generation = generation();
    return r;
  }
  const auto window = scheduler_.window_hours(std::max<std::int64_t>(last, 0));
  std::vector<smart::DriveRecord> goods;
  {
    const obs::ScopedSpan span("pipeline.window");
    for (std::size_t k = 0; k < targets_.size(); ++k) {
      (void)run_on_(k, [&] {
        auto part =
            targets_[k].store->read_window(window.first, window.second - 1);
        goods.insert(goods.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
      });
    }
  }
  const int weeks = static_cast<int>((window.second - window.first) / 168);
  CycleResult r = train_and_gate(std::move(goods), failed_, weeks, config_);
  scheduler_.mark(total, last);
  m_cycles_->inc();
  if (r.outcome != Outcome::kPromoted) {
    m_rejections_[static_cast<std::size_t>(r.outcome) -
                  static_cast<std::size_t>(Outcome::kRejectedLint)]
        ->inc();
  }
  r.generation = generation();
  log_debug() << "pipeline: gate step " << outcome_name(r.outcome)
              << " (val FAR " << r.val_far << ", FDR " << r.val_fdr << ")"
              << (r.reason.empty() ? "" : ": " + r.reason);
  return r;
}

std::uint64_t UpdatePipeline::promote(
    std::shared_ptr<const core::SampleScorer> candidate) {
  const obs::ScopedSpan span("pipeline.promote");
  std::ostringstream os;
  candidate->save(os);
  const std::string text = std::move(os).str();
  const std::uint64_t next = generation() + 1;
  // Journal-first: once every record is durable the swaps are a formality —
  // a crash between the two resumes to `next`, and a crash after only some
  // targets' records is healed by ShardEngine::resume()'s reconciliation.
  for (std::size_t k = 0; k < targets_.size(); ++k) {
    if (!run_on_(k, [&] {
          targets_[k].store->append_generation(next, text);
        })) {
      log_warn() << "pipeline: target " << k
                 << " unavailable; its generation record is deferred to "
                    "restart reconciliation";
    }
  }
  // swap() is safe against concurrent scoring calls.
  for (const Target& t : targets_) t.scorer->swap(candidate, next);
  m_promotions_->inc();
  m_generation_->set(static_cast<double>(next));
  log_debug() << "pipeline: promoted generation " << next;
  return next;
}

}  // namespace hdd::pipeline
