// Tests for src/update: the long-term simulation — training schedules per
// strategy, retraining counts, week coverage, and basic metric sanity.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.h"

#include "core/predictor.h"
#include "store/telemetry_store.h"
#include "tree/tree.h"
#include "update/strategies.h"

namespace hdd::update {
namespace {

sim::FleetConfig tiny_fleet() {
  sim::FleetConfig cfg;
  cfg.seed = 21;
  cfg.sample_interval_hours = 4;  // keep the suite quick
  cfg.observation_weeks = 5;
  cfg.failed_record_days = 20;
  cfg.families.push_back({sim::family_w_profile(), 250, 40});
  return cfg;
}

LongTermConfig base_config() {
  LongTermConfig cfg;
  const auto paper = core::paper_ct_config();
  cfg.training = paper.training;
  cfg.vote = paper.vote;
  return cfg;
}

// Counts trainer invocations and returns a real CT model.
ModelTrainer counting_trainer(int& calls,
                              std::vector<std::size_t>* row_counts = nullptr) {
  return [&calls, row_counts](const data::DataMatrix& m) {
    ++calls;
    if (row_counts != nullptr) row_counts->push_back(m.rows());
    auto t = std::make_shared<tree::DecisionTree>();
    tree::TreeParams params;
    t->fit(m, tree::Task::kClassification, params);
    return eval::SampleModel(
        [t](std::span<const float> x) { return t->predict(x); });
  };
}

TEST(StrategyNames, AllDistinct) {
  EXPECT_STREQ(strategy_name(Strategy::kFixed), "fixed");
  EXPECT_STREQ(strategy_name(Strategy::kAccumulation), "accumulation");
  EXPECT_STREQ(strategy_name(Strategy::kReplacing), "replacing");
}

TEST(LongTerm, ValidatesInputs) {
  auto fleet = tiny_fleet();
  auto cfg = base_config();
  int calls = 0;
  fleet.families.push_back(fleet.families[0]);  // two families: invalid
  EXPECT_THROW(simulate_long_term(fleet, counting_trainer(calls), cfg),
               ConfigError);
  fleet = tiny_fleet();
  EXPECT_THROW(simulate_long_term(fleet, nullptr, cfg), ConfigError);
  cfg.strategy = Strategy::kReplacing;
  cfg.replace_cycle_weeks = 0;
  EXPECT_THROW(simulate_long_term(fleet, counting_trainer(calls), cfg),
               ConfigError);
}

TEST(GeneratorTelemetrySource, RejectsAFleetWithoutExactlyOneFamily) {
  auto fleet = tiny_fleet();
  fleet.families.clear();
  EXPECT_THROW(GeneratorTelemetrySource{fleet}, ConfigError);
  fleet = tiny_fleet();
  fleet.families.push_back(fleet.families[0]);
  EXPECT_THROW(GeneratorTelemetrySource{fleet}, ConfigError);
}

TEST(LongTerm, CoversWeeksTwoThroughLast) {
  const auto fleet = tiny_fleet();
  auto cfg = base_config();
  int calls = 0;
  const auto weekly = simulate_long_term(fleet, counting_trainer(calls), cfg);
  ASSERT_EQ(weekly.size(), 4u);  // weeks 2..5
  for (std::size_t i = 0; i < weekly.size(); ++i) {
    EXPECT_EQ(weekly[i].week, static_cast<int>(i) + 2);
    EXPECT_GE(weekly[i].far, 0.0);
    EXPECT_LE(weekly[i].far, 1.0);
    EXPECT_GE(weekly[i].fdr, 0.0);
    EXPECT_LE(weekly[i].fdr, 1.0);
  }
}

TEST(LongTerm, FixedStrategyTrainsExactlyOnce) {
  const auto fleet = tiny_fleet();
  auto cfg = base_config();
  cfg.strategy = Strategy::kFixed;
  int calls = 0;
  simulate_long_term(fleet, counting_trainer(calls), cfg);
  EXPECT_EQ(calls, 1);
}

TEST(LongTerm, AccumulationRetrainsEveryWeekWithGrowingData) {
  const auto fleet = tiny_fleet();
  auto cfg = base_config();
  cfg.strategy = Strategy::kAccumulation;
  int calls = 0;
  std::vector<std::size_t> rows;
  simulate_long_term(fleet, counting_trainer(calls, &rows), cfg);
  EXPECT_EQ(calls, 4);  // one per test week
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i], rows[i - 1]);  // training set accumulates
  }
}

TEST(LongTerm, OneWeekReplacingRetrainsEveryWeekWithBoundedData) {
  const auto fleet = tiny_fleet();
  auto cfg = base_config();
  cfg.strategy = Strategy::kReplacing;
  cfg.replace_cycle_weeks = 1;
  int calls = 0;
  std::vector<std::size_t> rows;
  simulate_long_term(fleet, counting_trainer(calls, &rows), cfg);
  EXPECT_EQ(calls, 4);
  // Training windows stay one week wide: row counts stay flat-ish.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(rows[i]),
                static_cast<double>(rows[0]),
                0.2 * static_cast<double>(rows[0]));
  }
}

TEST(LongTerm, TwoWeekReplacingRetrainsEveryOtherWeek) {
  const auto fleet = tiny_fleet();
  auto cfg = base_config();
  cfg.strategy = Strategy::kReplacing;
  cfg.replace_cycle_weeks = 2;
  int calls = 0;
  simulate_long_term(fleet, counting_trainer(calls), cfg);
  // Test weeks 2..5: ranges are [0,1), [0,2), [0,2), [2,4) -> 3 trainings.
  EXPECT_EQ(calls, 3);
}

TEST(LongTerm, ModelAgingShowsUpForTheFixedStrategy) {
  // The headline phenomenon of Figures 6-9: the fixed model's FAR grows
  // over the weeks while 1-week replacing stays lower at the end.
  auto fleet = tiny_fleet();
  fleet.observation_weeks = 8;
  fleet.families[0].n_good = 400;

  auto cfg = base_config();
  cfg.strategy = Strategy::kFixed;
  int calls = 0;
  const auto fixed = simulate_long_term(fleet, counting_trainer(calls), cfg);

  cfg.strategy = Strategy::kReplacing;
  cfg.replace_cycle_weeks = 1;
  const auto replacing =
      simulate_long_term(fleet, counting_trainer(calls), cfg);

  EXPECT_GT(fixed.back().far, 3.0 * fixed.front().far + 0.001);
  EXPECT_LT(replacing.back().far, fixed.back().far);
}

// Retraining from store-read history must reproduce the generator-backed
// simulation exactly: the generator aligns samples to the global grid, and
// the store round-trips float attributes bit for bit.
TEST(LongTerm, StoreBackedTelemetryMatchesGenerator) {
  auto fleet = tiny_fleet();
  fleet.families[0].n_good = 60;  // keep the double simulation quick
  auto cfg = base_config();
  cfg.strategy = Strategy::kReplacing;
  cfg.replace_cycle_weeks = 2;

  const auto dir =
      std::filesystem::temp_directory_path() / "hdd_update_store_eqv";
  std::filesystem::remove_all(dir);
  {
    store::TelemetryStore store(dir.string());
    const std::size_t appended = ingest_good_telemetry(fleet, store);
    EXPECT_GT(appended, 0u);
    EXPECT_EQ(store.drive_count(), 60u);
    EXPECT_EQ(ingest_good_telemetry(fleet, store), 0u);  // idempotent

    int calls_gen = 0;
    int calls_store = 0;
    const auto baseline =
        simulate_long_term(fleet, counting_trainer(calls_gen), cfg);
    const auto stored =
        simulate_long_term(fleet, counting_trainer(calls_store), cfg,
                           StoreTelemetrySource(store));
    EXPECT_EQ(calls_store, calls_gen);
    ASSERT_EQ(stored.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(stored[i].week, baseline[i].week);
      EXPECT_EQ(stored[i].far, baseline[i].far);  // exact, not approximate
      EXPECT_EQ(stored[i].fdr, baseline[i].fdr);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hdd::update
