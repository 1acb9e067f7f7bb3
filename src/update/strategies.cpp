#include "update/strategies.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "pipeline/pipeline.h"
#include "store/telemetry_store.h"

namespace hdd::update {

namespace {

// Checked before the member initializers touch the family.
const sim::FamilySpec& only_family(const sim::FleetConfig& fleet) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "GeneratorTelemetrySource expects exactly one family");
  return fleet.families.front();
}

}  // namespace

GeneratorTelemetrySource::GeneratorTelemetrySource(
    const sim::FleetConfig& fleet)
    : fleet_(&fleet), gen_(only_family(fleet).profile, fleet.seed, 0) {}

std::vector<smart::DriveRecord> GeneratorTelemetrySource::good_window(
    int from_week, int to_week) const {
  const sim::FamilySpec& fam = fleet_->families.front();
  const std::int64_t horizon =
      static_cast<std::int64_t>(fleet_->observation_weeks) * 168;
  std::vector<smart::DriveRecord> out(fam.n_good);
  ThreadPool::global().parallel_for(0, fam.n_good, [&](std::size_t i) {
    const auto latent = gen_.make_latent(i, /*failed=*/false, horizon);
    out[i] = gen_.materialize(latent,
                              static_cast<std::int64_t>(from_week) * 168,
                              static_cast<std::int64_t>(to_week) * 168 - 1,
                              fleet_->sample_interval_hours);
    out[i].serial = fam.profile.name + "-G" + std::to_string(i);
  });
  return out;
}

StoreTelemetrySource::StoreTelemetrySource(const store::TelemetryStore& store)
    : store_(&store) {}

std::vector<smart::DriveRecord> StoreTelemetrySource::good_window(
    int from_week, int to_week) const {
  return store_->read_window(static_cast<std::int64_t>(from_week) * 168,
                             static_cast<std::int64_t>(to_week) * 168 - 1);
}

std::size_t ingest_good_telemetry(const sim::FleetConfig& fleet,
                                  store::TelemetryStore& store) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "ingest_good_telemetry expects exactly one family");
  const auto drives = GeneratorTelemetrySource(fleet).good_window(
      0, fleet.observation_weeks);
  std::size_t appended = 0;
  for (const smart::DriveRecord& d : drives) {
    const std::uint32_t id = store.register_drive(d.serial);
    for (const smart::Sample& s : d.samples) {
      if (store.drive(id).last_hour >= s.hour) continue;  // idempotent re-run
      store.append(id, s);
      ++appended;
    }
  }
  store.flush();
  return appended;
}

std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config) {
  return simulate_long_term(fleet, trainer, config,
                            GeneratorTelemetrySource(fleet));
}

std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config,
                                             const TelemetrySource& source) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "simulate_long_term expects exactly one family");
  HDD_REQUIRE(fleet.observation_weeks >= 2, "need at least two weeks");
  HDD_REQUIRE(static_cast<bool>(trainer), "null trainer");
  if (config.strategy == Strategy::kReplacing) {
    HDD_REQUIRE(config.replace_cycle_weeks >= 1,
                "replace cycle must be >= 1 week");
  }

  const sim::FamilySpec& fam = fleet.families.front();
  const sim::TraceGenerator gen(fam.profile, fleet.seed, 0);
  const std::int64_t horizon =
      static_cast<std::int64_t>(fleet.observation_weeks) * 168;
  const std::int64_t failed_span =
      static_cast<std::int64_t>(fleet.failed_record_days) * 24;

  // Failed drives: materialized once, split once, shared by all weeks.
  std::vector<smart::DriveRecord> failed(fam.n_failed);
  ThreadPool::global().parallel_for(0, fam.n_failed, [&](std::size_t i) {
    const auto latent = gen.make_latent(i, /*failed=*/true, horizon);
    failed[i] = gen.materialize(
        latent, std::max<std::int64_t>(0, latent.fail_hour - failed_span),
        latent.fail_hour, fleet.sample_interval_hours);
    failed[i].serial = fam.profile.name + "-F" + std::to_string(i);
  });

  Rng rng(config.seed);
  const auto perm = rng.permutation(failed.size());
  const auto n_train_failed = static_cast<std::size_t>(std::round(
      static_cast<double>(failed.size()) * config.train_fraction));
  const std::span<const std::size_t> failed_order(perm);

  std::vector<WeeklyResult> results;
  eval::SampleModel model;
  std::pair<int, int> trained_range{-1, -1};

  for (int week = 2; week <= fleet.observation_weeks; ++week) {
    // The strategy's training weeks, stepped by the same implementation as
    // the live pipeline (pipeline/scheduler.h).
    const auto range = pipeline::training_range(
        config.strategy, config.replace_cycle_weeks, week);
    if (range != trained_range) {
      // (Re)train on the strategy's window.
      const auto train = pipeline::holdout_split(
          source.good_window(range.first, range.second), {}, failed,
          failed_order.first(n_train_failed), {}, fam.profile.name);
      data::TrainingConfig tc = config.training;
      // Keep the per-week good sampling density constant as windows grow.
      tc.good_samples_per_drive = config.training.good_samples_per_drive *
                                  (range.second - range.first);
      const auto matrix =
          data::build_training_matrix(train.train_ds, train.train, tc);
      model = trainer(matrix);
      trained_range = range;
      log_debug() << "trained " << strategy_name(config.strategy)
                  << " model on weeks [" << range.first << ","
                  << range.second << ") with " << matrix.rows() << " rows";
    }

    // Test on week `week` (1-based: hours [(week-1)*168, week*168)).
    const auto test = pipeline::holdout_split(
        {}, source.good_window(week - 1, week), failed, {},
        failed_order.subspan(n_train_failed), fam.profile.name);
    const auto result = eval::evaluate(test.val_ds, test.val,
                                       config.training.features, model,
                                       config.vote);
    results.push_back({week, result.far(), result.fdr()});
  }
  return results;
}

}  // namespace hdd::update
