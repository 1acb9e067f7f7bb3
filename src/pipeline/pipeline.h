// UpdatePipeline — the continuous model-update control loop (productionized
// Section V-B3), and the only implementation of its retrain cycle.
//
// Each cycle reads the scheduler's watermarks and training window from the
// journaled TelemetryStores, trains a candidate model, and promotes it into
// the live SwappableScorers only if it clears two gates:
//   1. lint  — the analysis:: static verifier finds no warning/error-level
//              defect in the candidate (dead splits, unreachable leaves...);
//   2. guard — FAR/FDR measured on a held-back validation slice stay inside
//              the configured rails.
// The cycle runs over (store, scorer) targets: one for `autoretrain`,
// perfbench and the offline tests; one per shard for the serve daemon's
// RetrainLoop (serve/retrain_loop.h), which makes every store access on
// that shard's worker. Promotion is journal-first: every target's
// generation record (store/format.h type 3) is fsynced before any swap, so
// kill -9 between the two steps resumes to the *new* generation. Rejected
// candidates are counted, never scored.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/swappable.h"
#include "data/split.h"
#include "pipeline/scheduler.h"
#include "smart/drive.h"

namespace hdd::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace hdd::obs

namespace hdd::store {
class TelemetryStore;
}

namespace hdd::pipeline {

// FAR/FDR rails a candidate must stay inside on the validation slice. A
// rail whose side of the split holds no drives is vacuous (a window with no
// failed validation drives cannot measure FDR).
struct GuardrailConfig {
  double max_far = 1.0;   // reject when validation FAR exceeds this
  double min_fdr = 0.0;   // reject when validation FDR falls below this
  bool require_lint_clean = true;  // reject on any verifier finding
};

// What a retrain cycle did. Fixed codes: these cross the serve wire as one
// byte (StatsResponse::last_outcome).
enum class Outcome : std::uint8_t {
  kNone = 0,  // no cycle has run yet
  kPromoted = 1,
  kRejectedLint = 2,
  kRejectedGuardrail = 3,
  kRejectedNoData = 4,      // window held no trainable samples
  kRejectedTrainFailed = 5, // trainer threw
  kSkipped = 6,             // scheduler not due
};

const char* outcome_name(Outcome o);

struct PipelineConfig {
  SchedulerConfig scheduler;
  // Candidate family + training parameters + voting (e.g. core::preset("ct")).
  core::PredictorConfig trainer;
  GuardrailConfig guardrail;
  analysis::VerifyOptions verify;  // lint-gate options

  // Good/failed drives split between training and held-back validation.
  double train_fraction = 0.7;
  std::uint64_t seed = 31;

  // Serve loop only: samples the candidate must shadow-score on live
  // traffic before promotion (0 = promote as soon as the gates pass).
  std::uint64_t min_shadow_samples = 0;

  // Registry for the hdd_pipeline_* instruments; nullptr = global.
  obs::Registry* metrics = nullptr;
};

// The training side and the validation side a candidate is trained and
// judged on, each listing its good drives first, then its failed drives.
struct HoldoutSplit {
  data::DriveDataset train_ds;
  data::DatasetSplit train;
  data::DriveDataset val_ds;
  data::DatasetSplit val;
};

// Non-empty `train_goods` drives are wholly training data, non-empty
// `val_goods` drives wholly validation data; failed_pool[i] trains for each
// i in `train_failed` and validates for each non-empty i in `val_failed`
// (the two parts of one seeded permutation). train_and_gate and
// update::simulate_long_term both split this way.
HoldoutSplit holdout_split(std::vector<smart::DriveRecord> train_goods,
                           std::vector<smart::DriveRecord> val_goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           std::span<const std::size_t> train_failed,
                           std::span<const std::size_t> val_failed,
                           const std::string& family);

// What a retrain cycle, or its gate step alone, did.
struct CycleResult {
  Outcome outcome = Outcome::kNone;
  std::uint64_t generation = 0;  // live generation after the cycle
  double val_far = 0.0;
  double val_fdr = 0.0;
  std::size_t train_rows = 0;
  std::string reason;  // human-readable rejection cause ("" when promoted)
  // The model that passed the gates (outcome kPromoted), until the promote
  // step takes it; null otherwise.
  std::shared_ptr<const core::SampleScorer> candidate;
};

// Trains a candidate on a deterministic train_fraction split of `goods` +
// `failed_pool` and runs it through the lint and guardrail gates.
// `window_weeks` is the training window's width (scales the per-drive good
// sampling density, matching update::simulate_long_term). Pure function of
// its inputs — never touches a store or a live scorer.
CycleResult train_and_gate(std::vector<smart::DriveRecord> goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           int window_weeks, const PipelineConfig& config);

// Generation-record text back into a scorer lives in core (FleetRuntime's
// restore and ShardEngine::resume() share it).
using core::load_generation_model;

// One journal the cycle trains from (every drive in it is good telemetry)
// and the live scorer it promotes into.
struct Target {
  store::TelemetryStore* store = nullptr;
  core::SwappableScorer* scorer = nullptr;
};

// Runs `step` against target k's store and returns true, or returns false
// without running it when target k is unavailable. The step's exceptions
// reach the cycle.
using RunOnTarget =
    std::function<bool(std::size_t k, const std::function<void()>& step)>;

// Single-threaded by contract — only the swap itself is concurrency-safe.
class UpdatePipeline {
 public:
  // All referenced objects must outlive the pipeline. `failed_pool`
  // supplies the labeled failure records (the paper shares one failed set
  // across all retrains). This form has one target and calls straight
  // into its store.
  UpdatePipeline(core::SwappableScorer& scorer, store::TelemetryStore& store,
                 std::vector<smart::DriveRecord> failed_pool,
                 PipelineConfig config);
  // Several targets, every store access made through `run_on`; the window
  // is the targets' drives in target order.
  UpdatePipeline(std::vector<Target> targets, RunOnTarget run_on,
                 std::vector<smart::DriveRecord> failed_pool,
                 PipelineConfig config);

  const PipelineConfig& config() const { return config_; }
  const RetrainScheduler& scheduler() const { return scheduler_; }
  const CycleResult& last_result() const { return last_; }
  // The live generation: the newest across targets.
  std::uint64_t generation() const;

  // One scheduler tick: the gate step, then the promote step for a
  // candidate that passed. `force` bypasses the due-check (offline
  // `autoretrain --cycles`).
  CycleResult run_cycle(bool force = false);

  // The gate step: reads the watermarks and, when due or forced, the
  // training window; trains and gates a candidate, marks the scheduler and
  // counts the cycle. kSkipped when not due. On kPromoted (the gates
  // passed) the result holds the candidate, not yet journaled or swapped.
  CycleResult gate(bool force);

  // The promote step, journal-first: every target's generation record is
  // made durable, then every target swaps. Returns the new generation.
  std::uint64_t promote(std::shared_ptr<const core::SampleScorer> candidate);

 private:
  std::vector<Target> targets_;
  RunOnTarget run_on_;
  std::vector<smart::DriveRecord> failed_;
  PipelineConfig config_;
  RetrainScheduler scheduler_;
  CycleResult last_;

  // The hdd_pipeline_* instruments (DESIGN.md §10); shadow divergence
  // counters live on FleetScorer.
  obs::Counter* m_cycles_;
  obs::Counter* m_promotions_;
  // hdd_pipeline_rejections_total{reason}, in Outcome order from
  // kRejectedLint.
  std::array<obs::Counter*, 4> m_rejections_;
  obs::Gauge* m_generation_;
};

}  // namespace hdd::pipeline
