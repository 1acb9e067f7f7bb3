#include "core/health.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"
#include "common/math_util.h"

namespace hdd::core {

HealthDegreeModel::HealthDegreeModel(HealthModelConfig config)
    : config_(std::move(config)) {
  HDD_REQUIRE(config_.global_window_hours > 0 &&
                  config_.fallback_window_hours > 0,
              "windows must be positive");
  HDD_REQUIRE(config_.failed_samples_per_drive > 0,
              "failed_samples_per_drive must be positive");
}

void HealthDegreeModel::fit(const data::DriveDataset& dataset,
                            const data::DatasetSplit& split) {
  windows_.clear();

  // Per-drive deterioration windows (Eq. 6): the CT model's time in advance
  // on each failed training drive.
  std::unordered_map<const smart::DriveRecord*, int> window_of;
  if (config_.personalized) {
    FailurePredictor ct(config_.ct_config);
    ct.fit(dataset, split);
    for (std::size_t di : split.train_failed) {
      const auto& d = dataset.drives[di];
      if (d.empty()) continue;
      const auto outcome = ct.detect(d);
      int w = config_.fallback_window_hours;
      if (outcome.alarmed) {
        const auto tia = static_cast<int>(d.fail_hour - outcome.alarm_hour);
        if (tia > 0) w = tia;
      }
      window_of[&d] = w;
      windows_.emplace_back(d.serial, w);
    }
  }

  // RT training matrix: targets from Eq. 5/6, 12 evenly spaced failed
  // samples per drive inside its window.
  data::TrainingConfig tc = config_.ct_config.training;
  tc.failed_samples_per_drive = config_.failed_samples_per_drive;
  tc.failed_window_hours = config_.global_window_hours;

  data::FailedWindowFn window_fn;
  data::FailedTargetFn target_fn;
  if (config_.personalized) {
    window_fn = [&window_of, this](const smart::DriveRecord& d) {
      const auto it = window_of.find(&d);
      return it != window_of.end() ? it->second
                                   : config_.fallback_window_hours;
    };
    target_fn = [&window_of, this](const smart::DriveRecord& d,
                                   std::int64_t hours_before) {
      const auto it = window_of.find(&d);
      const double w = static_cast<double>(
          it != window_of.end() ? it->second : config_.fallback_window_hours);
      return static_cast<float>(
          clamp(-1.0 + static_cast<double>(hours_before) / w, -1.0, 0.0));
    };
  } else {
    const double w = config_.global_window_hours;
    target_fn = [w](const smart::DriveRecord&, std::int64_t hours_before) {
      return static_cast<float>(
          clamp(-1.0 + static_cast<double>(hours_before) / w, -1.0, 0.0));
    };
  }

  const auto matrix =
      data::build_training_matrix(dataset, split, tc, target_fn, window_fn);
  rt_.fit(matrix, tree::Task::kRegression, config_.rt_params);
}

double HealthDegreeModel::health(const smart::DriveRecord& drive,
                                 std::size_t sample_index) const {
  HDD_REQUIRE(trained(), "health model is not trained");
  const auto row = smart::extract_features(
      drive, sample_index, config_.ct_config.training.features);
  HDD_REQUIRE(row.has_value(), "sample index out of range");
  return rt_.predict(*row);
}

eval::SampleModel HealthDegreeModel::sample_model() const {
  HDD_REQUIRE(trained(), "health model is not trained");
  const tree::DecisionTree* t = &rt_;
  return [t](std::span<const float> x) { return t->predict(x); };
}

namespace {

// The regression tree scored one block of feature rows per call: the model
// both detect and evaluate vote over.
eval::BatchSampleModel block_model(const tree::DecisionTree& rt) {
  return [&rt](std::span<const float> xs, std::span<double> out) {
    rt.predict_batch(xs, out);
  };
}

}  // namespace

eval::DriveOutcome HealthDegreeModel::detect(const smart::DriveRecord& drive,
                                             std::size_t begin_index) const {
  HDD_REQUIRE(trained(), "health model is not trained");
  eval::DriveVoteState vote({.voters = config_.voters,
                             .average_mode = true,
                             .threshold = config_.threshold});
  return eval::detect_record(drive, begin_index,
                             config_.ct_config.training.features,
                             block_model(rt_), vote);
}

eval::EvalResult HealthDegreeModel::evaluate(const data::DriveDataset& dataset,
                                             const data::DatasetSplit& split,
                                             double threshold) const {
  HDD_REQUIRE(trained(), "health model is not trained");
  return eval::evaluate_batch(
      dataset, split, config_.ct_config.training.features, block_model(rt_),
      {.voters = config_.voters, .average_mode = true, .threshold = threshold});
}

namespace {
// Min-heap comparator: lowest health = highest priority.
bool healthier(const Warning& a, const Warning& b) {
  return a.health > b.health;
}
}  // namespace

void WarningQueue::push(Warning w) {
  heap_.push_back(std::move(w));
  std::push_heap(heap_.begin(), heap_.end(), healthier);
}

Warning WarningQueue::pop() {
  HDD_REQUIRE(!heap_.empty(), "pop from an empty WarningQueue");
  std::pop_heap(heap_.begin(), heap_.end(), healthier);
  Warning w = std::move(heap_.back());
  heap_.pop_back();
  return w;
}

}  // namespace hdd::core
