#include "eval/detection.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace hdd::eval {

DriveVoteState::DriveVoteState(const VoteConfig& vote) : vote_(vote) {
  HDD_REQUIRE(vote_.voters >= 1, "voters must be >= 1");
  ring_.assign(static_cast<std::size_t>(vote_.voters), 0.0f);
}

bool DriveVoteState::decide(std::size_t window) const {
  if (vote_.average_mode) {
    return output_sum_ / static_cast<double>(window) < vote_.threshold;
  }
  return static_cast<double>(failed_votes_) >
         static_cast<double>(window) / 2.0;
}

void DriveVoteState::raise_alarm(std::int64_t hour) {
  alarmed_ = true;
  alarm_hour_ = hour;
  if (alarms_counter_ != nullptr) alarms_counter_->inc();
}

bool DriveVoteState::push(std::int64_t hour, double output) {
  if (alarmed_) return false;
  ++seen_;
  last_hour_ = hour;
  // Outputs round through float exactly as score_record stores them, so
  // streaming decisions match the offline path bit for bit.
  const float v = static_cast<float>(output);
  const bool failed_vote = v < 0.0f;
  if (seen_ > 1 && failed_vote != last_vote_failed_ &&
      transitions_counter_ != nullptr) {
    transitions_counter_->inc();
  }
  last_vote_failed_ = failed_vote;
  const std::size_t want = ring_.size();
  if (filled_ == want) {
    const double old = ring_[head_];
    if (old < 0.0) --failed_votes_;
    output_sum_ -= old;
  } else {
    ++filled_;
  }
  ring_[head_] = v;
  head_ = (head_ + 1) % want;
  if (v < 0.0f) ++failed_votes_;
  output_sum_ += v;
  if (filled_ < want) return false;  // decisions start at a full window
  if (decide(want)) {
    raise_alarm(hour);
    return true;
  }
  return false;
}

bool DriveVoteState::finish() {
  if (alarmed_ || filled_ == 0 || filled_ >= ring_.size()) return false;
  if (decide(filled_)) {
    raise_alarm(last_hour_);
    return true;
  }
  return false;
}

void DriveVoteState::reset() {
  head_ = filled_ = failed_votes_ = 0;
  output_sum_ = 0.0;
  seen_ = 0;
  last_hour_ = alarm_hour_ = -1;
  alarmed_ = false;
  last_vote_failed_ = false;
}

DriveOutcome vote_drive(const DriveScores& scores, const VoteConfig& config) {
  DriveVoteState vote(config);
  for (std::size_t i = 0; i < scores.outputs.size(); ++i) {
    if (vote.push(scores.hours[i], scores.outputs[i])) break;
  }
  vote.finish();
  return vote.outcome();
}

std::vector<HoldoutJob> holdout_jobs(const data::DriveDataset& dataset,
                                     const data::DatasetSplit& split) {
  std::vector<HoldoutJob> jobs;
  for (std::size_t k = 0; k < split.good_drives.size(); ++k) {
    const auto& d = dataset.drives[split.good_drives[k]];
    const std::size_t begin = split.good_test_begin[k];
    if (begin >= d.samples.size()) continue;  // no test samples
    jobs.push_back({split.good_drives[k], begin});
  }
  for (std::size_t di : split.test_failed) {
    if (dataset.drives[di].empty()) continue;
    jobs.push_back({di, 0});
  }
  return jobs;
}

namespace {

// The one extract -> predict loop: scores `drive` from `begin` in blocks
// of `block_rows` rows and hands each block's first sample index and
// outputs to `visit`, which returns false to stop early.
template <typename Visit>
void score_blocks(const smart::DriveRecord& drive, std::size_t begin,
                  const smart::FeatureSet& features,
                  const BatchSampleModel& model, std::size_t block_rows,
                  Visit&& visit) {
  HDD_REQUIRE(block_rows >= 1, "block_rows must be >= 1");
  const std::size_t n = drive.samples.size();
  std::vector<float> xbuf;
  std::vector<double> obuf;
  for (std::size_t base = begin; base < n; base += block_rows) {
    const std::size_t hi = std::min(base + block_rows, n);
    xbuf.clear();
    smart::extract_features_block(drive, base, hi, features, xbuf);
    obuf.resize(hi - base);
    model(xbuf, obuf);
    if (!visit(base, std::span<const double>(obuf))) return;
  }
}

// Holdout evaluation through detect_record, parallel across drives.
EvalResult detect_holdout(const data::DriveDataset& dataset,
                          const data::DatasetSplit& split,
                          const smart::FeatureSet& features,
                          const BatchSampleModel& model,
                          const VoteConfig& config) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  const auto jobs = holdout_jobs(dataset, split);
  std::vector<DriveOutcome> outcomes(jobs.size());
  ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
    DriveVoteState vote(config);
    outcomes[j] = detect_record(dataset.drives[jobs[j].drive], jobs[j].begin,
                                features, model, vote);
  });
  EvalResult r;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& d = dataset.drives[jobs[j].drive];
    r.add(d.failed, d.fail_hour, outcomes[j]);
  }
  return r;
}

// Runs a scalar model row by row behind the batch interface.
BatchSampleModel per_row(const SampleModel& model, std::size_t width) {
  return [&model, width](std::span<const float> xs, std::span<double> out) {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = model(xs.subspan(r * width, width));
    }
  };
}

}  // namespace

DriveScores score_record(const smart::DriveRecord& drive, std::size_t begin,
                         const smart::FeatureSet& features,
                         const SampleModel& model) {
  DriveScores s;
  s.failed = drive.failed;
  s.fail_hour = drive.fail_hour;
  const std::size_t n = drive.samples.size();
  if (begin >= n) return s;
  s.hours.reserve(n - begin);
  s.outputs.reserve(n - begin);
  const auto model_rows = per_row(model, features.specs.size());
  score_blocks(drive, begin, features, model_rows, 256,
               [&](std::size_t base, std::span<const double> out) {
                 for (std::size_t k = 0; k < out.size(); ++k) {
                   s.hours.push_back(drive.samples[base + k].hour);
                   s.outputs.push_back(static_cast<float>(out[k]));
                 }
                 return true;
               });
  return s;
}

DriveOutcome detect_record(const smart::DriveRecord& drive, std::size_t begin,
                           const smart::FeatureSet& features,
                           const BatchSampleModel& model, DriveVoteState& vote,
                           std::size_t block_rows) {
  score_blocks(drive, begin, features, model, block_rows,
               [&](std::size_t base, std::span<const double> out) {
                 for (std::size_t k = 0; k < out.size(); ++k) {
                   if (vote.push(drive.samples[base + k].hour, out[k])) {
                     return false;  // first alarm: the decision is made
                   }
                 }
                 return true;
               });
  vote.finish();
  return vote.outcome();
}

std::vector<DriveScores> score_dataset(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split,
                                       const smart::FeatureSet& features,
                                       const SampleModel& model) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  const auto jobs = holdout_jobs(dataset, split);
  std::vector<DriveScores> out(jobs.size());
  ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
    out[j] = score_record(dataset.drives[jobs[j].drive], jobs[j].begin,
                          features, model);
  });
  return out;
}

double EvalResult::mean_tia() const {
  if (tia_hours.empty()) return 0.0;
  double s = 0.0;
  for (double t : tia_hours) s += t;
  return s / static_cast<double>(tia_hours.size());
}

void EvalResult::add(bool failed, std::int64_t fail_hour,
                     const DriveOutcome& outcome) {
  if (failed) {
    ++n_failed;
    if (outcome.alarmed) {
      ++detections;
      tia_hours.push_back(static_cast<double>(fail_hour - outcome.alarm_hour));
    }
  } else {
    ++n_good;
    if (outcome.alarmed) ++false_alarms;
  }
}

EvalResult evaluate_votes(const std::vector<DriveScores>& scores,
                          const VoteConfig& config) {
  EvalResult r;
  for (const auto& s : scores) {
    r.add(s.failed, s.fail_hour, vote_drive(s, config));
  }
  return r;
}

EvalResult evaluate(const data::DriveDataset& dataset,
                    const data::DatasetSplit& split,
                    const smart::FeatureSet& features,
                    const SampleModel& model, const VoteConfig& config) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  return detect_holdout(dataset, split, features,
                        per_row(model, features.specs.size()), config);
}

EvalResult evaluate_batch(const data::DriveDataset& dataset,
                          const data::DatasetSplit& split,
                          const smart::FeatureSet& features,
                          const BatchSampleModel& model,
                          const VoteConfig& config) {
  return detect_holdout(dataset, split, features, model, config);
}

const char* const kTiaBucketLabels[5] = {"0-24", "25-72", "73-168", "169-336",
                                         "337-450+"};

std::vector<std::size_t> tia_histogram(std::span<const double> tia_hours) {
  std::vector<std::size_t> buckets(5, 0);
  for (double t : tia_hours) {
    if (t <= 24.0) ++buckets[0];
    else if (t <= 72.0) ++buckets[1];
    else if (t <= 168.0) ++buckets[2];
    else if (t <= 336.0) ++buckets[3];
    else ++buckets[4];
  }
  return buckets;
}

std::vector<RocPoint> roc_over_voters(const std::vector<DriveScores>& scores,
                                      std::span<const int> voter_counts) {
  std::vector<RocPoint> points;
  points.reserve(voter_counts.size());
  for (int n : voter_counts) {
    VoteConfig cfg;
    cfg.voters = n;
    const EvalResult r = evaluate_votes(scores, cfg);
    points.push_back({r.far(), r.fdr(), static_cast<double>(n),
                      r.mean_tia()});
  }
  return points;
}

std::vector<RocPoint> roc_over_thresholds(
    const std::vector<DriveScores>& scores, int voters,
    std::span<const double> thresholds) {
  std::vector<RocPoint> points;
  points.reserve(thresholds.size());
  for (double t : thresholds) {
    VoteConfig cfg;
    cfg.voters = voters;
    cfg.average_mode = true;
    cfg.threshold = t;
    const EvalResult r = evaluate_votes(scores, cfg);
    points.push_back({r.far(), r.fdr(), t, r.mean_tia()});
  }
  return points;
}

}  // namespace hdd::eval
