// Drive-level failure detection and evaluation (Section V-A).
//
// Models classify individual samples; a *drive* is predicted to fail via the
// paper's voting scheme: at each time point, look at the last N samples
// (voters) — for binary models alarm when more than N/2 are classified
// failed; for the health-degree model alarm when the mean output drops
// below a threshold. The first alarming time point fixes the time in
// advance (TIA = failure hour - alarm hour).
//
// Every drive-level decision in the repo runs through this one path:
//   * DriveVoteState is the only N-voter window. Live scoring
//     (core::FleetScorer) pushes into it sample by sample; vote_drive is a
//     fold over it (construct, push every output, finish()).
//   * holdout_jobs is the only place that decides which drives a holdout
//     scores and from which sample; EvalResult::add is the only tally.
//   * One block loop extracts features, calls the batch model and hands
//     the outputs on. score_record keeps the outputs (per-row adapter over
//     a scalar model); detect_record pushes them into a DriveVoteState and
//     stops at the first alarm (evaluate, evaluate_batch and FleetScorer's
//     replay/evaluate).
//
// Metrics (per drive, matching the paper):
//   FDR — fraction of failed test drives alarmed during their record;
//   FAR — fraction of good test drives alarmed during their test period;
//   TIA — hours between alarm and actual failure, for correct detections.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "smart/features.h"

namespace hdd::obs {
class Counter;
}

namespace hdd::eval {

// A sample-level model: margin/health output, negative = failing.
using SampleModel = std::function<double(std::span<const float>)>;

// Batch sample-level model: scores `out.size()` row-major feature rows in
// one call (the fast path of core::SampleScorer::predict_batch).
using BatchSampleModel =
    std::function<void(std::span<const float> xs, std::span<double> out)>;

// Precomputed model outputs over one drive's evaluation range. Scoring is
// separated from voting so that ROC sweeps over N / thresholds do not
// re-extract features or re-run the model.
struct DriveScores {
  bool failed = false;
  std::int64_t fail_hour = -1;
  std::vector<std::int64_t> hours;
  std::vector<float> outputs;
};

struct VoteConfig {
  int voters = 11;           // N
  bool average_mode = false; // true: mean-output threshold (RT health model)
  double threshold = 0.0;    // alarm when mean output < threshold
};

struct DriveOutcome {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
};

// Incremental sliding-window voting state for one drive: the decision rule
// maintained sample by sample over a ring buffer of the last N model
// outputs. The live engine's alarms are made here, so vote_drive and every
// evaluation path fold over the same arithmetic.
class DriveVoteState {
 public:
  explicit DriveVoteState(const VoteConfig& vote);

  // Feeds one model output; returns true exactly when this sample raises
  // the drive's (first) alarm. No-op once alarmed. Decisions start once the
  // window holds N samples.
  bool push(std::int64_t hour, double output);

  // Closes a record shorter than the voting window: such drives vote once
  // over what they have. Returns true if this raises the alarm.
  bool finish();

  bool alarmed() const { return alarmed_; }
  std::int64_t alarm_hour() const { return alarm_hour_; }
  std::int64_t samples_seen() const { return seen_; }
  DriveOutcome outcome() const { return {alarmed_, alarm_hour_}; }

  // The rolling vote verdict over the window's current contents (the rule
  // push() checks at a full window; short windows vote over what they
  // have), independent of the alarm latch. Shadow scoring compares the
  // incumbent's and candidate's verdicts sample by sample with this.
  bool current_decision() const {
    return filled_ > 0 && decide(std::min(filled_, ring_.size()));
  }

  // Forgets all observations (keeps the configuration).
  void reset();

  // Optional instrumentation (FleetScorer wires these): `transitions`
  // counts sample-level vote flips — consecutive model outputs of this
  // drive crossing the failure threshold in either direction — and
  // `alarms` counts the terminal healthy->alarmed transition. Counters
  // are sharded atomics, so concurrent pushes from scoring blocks are
  // safe.
  void set_metrics(obs::Counter* transitions, obs::Counter* alarms) {
    transitions_counter_ = transitions;
    alarms_counter_ = alarms;
  }

 private:
  bool decide(std::size_t window) const;
  void raise_alarm(std::int64_t hour);

  VoteConfig vote_;
  std::vector<float> ring_;  // last N outputs, circular
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t failed_votes_ = 0;
  double output_sum_ = 0.0;
  std::int64_t seen_ = 0;
  std::int64_t last_hour_ = -1;
  bool alarmed_ = false;
  std::int64_t alarm_hour_ = -1;
  bool last_vote_failed_ = false;
  obs::Counter* transitions_counter_ = nullptr;
  obs::Counter* alarms_counter_ = nullptr;
};

// Applies the voting rule to one drive's scores: a fold over
// DriveVoteState. Drives with fewer samples than N vote over what they have.
DriveOutcome vote_drive(const DriveScores& scores, const VoteConfig& config);

// One drive a holdout scores: dataset index + first sample index.
struct HoldoutJob {
  std::size_t drive = 0;
  std::size_t begin = 0;
};

// The holdout protocol: good drives over their chronological test portion,
// failed test drives over their whole record, empty ranges skipped. Good
// drives come first, in split order, then failed drives.
std::vector<HoldoutJob> holdout_jobs(const data::DriveDataset& dataset,
                                     const data::DatasetSplit& split);

// Scores one drive record from sample index `begin` to the end.
DriveScores score_record(const smart::DriveRecord& drive, std::size_t begin,
                         const smart::FeatureSet& features,
                         const SampleModel& model);

// Scores one drive record from `begin` in blocks of `block_rows` (block
// feature extraction + one model call per block), pushes every output into
// `vote` and stops at the first alarm; then finish()es the record and
// returns the outcome.
DriveOutcome detect_record(const smart::DriveRecord& drive, std::size_t begin,
                           const smart::FeatureSet& features,
                           const BatchSampleModel& model, DriveVoteState& vote,
                           std::size_t block_rows = 256);

// Scores every holdout job (score_record). Parallelized.
std::vector<DriveScores> score_dataset(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split,
                                       const smart::FeatureSet& features,
                                       const SampleModel& model);

struct EvalResult {
  std::size_t n_good = 0;
  std::size_t n_failed = 0;
  std::size_t false_alarms = 0;
  std::size_t detections = 0;
  std::vector<double> tia_hours;  // one entry per correct detection

  double far() const {
    return n_good ? static_cast<double>(false_alarms) /
                        static_cast<double>(n_good)
                  : 0.0;
  }
  double fdr() const {
    return n_failed ? static_cast<double>(detections) /
                          static_cast<double>(n_failed)
                    : 0.0;
  }
  double mean_tia() const;

  // Tallies one scored drive.
  void add(bool failed, std::int64_t fail_hour, const DriveOutcome& outcome);
};

EvalResult evaluate_votes(const std::vector<DriveScores>& scores,
                          const VoteConfig& config);

// One-call convenience: holdout_jobs -> detect_record -> tally. Parallelized.
EvalResult evaluate(const data::DriveDataset& dataset,
                    const data::DatasetSplit& split,
                    const smart::FeatureSet& features,
                    const SampleModel& model, const VoteConfig& config);

// Batched variant of evaluate (what FailurePredictor::evaluate uses).
EvalResult evaluate_batch(const data::DriveDataset& dataset,
                          const data::DatasetSplit& split,
                          const smart::FeatureSet& features,
                          const BatchSampleModel& model,
                          const VoteConfig& config);

// The paper's TIA histogram buckets (Figures 3-4): 0-24, 25-72, 73-168,
// 169-336, 337-450+ hours. Returns counts per bucket.
std::vector<std::size_t> tia_histogram(std::span<const double> tia_hours);
extern const char* const kTiaBucketLabels[5];

// ROC sweep over voter counts (binary models, Figure 2/5).
struct RocPoint {
  double x = 0.0;  // FAR
  double y = 0.0;  // FDR
  double param = 0.0;  // N or threshold
  double mean_tia = 0.0;
};
std::vector<RocPoint> roc_over_voters(const std::vector<DriveScores>& scores,
                                      std::span<const int> voter_counts);

// ROC sweep over detection thresholds at fixed N (health model, Figure 10).
std::vector<RocPoint> roc_over_thresholds(
    const std::vector<DriveScores>& scores, int voters,
    std::span<const double> thresholds);

}  // namespace hdd::eval
