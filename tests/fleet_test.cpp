// Tests for core::FleetScorer and the voting window it shares with eval
// (core::DriveVoteState is eval::DriveVoteState): push/finish raise the
// alarm exactly once and agree with eval::vote_drive, replay and evaluate
// agree with the scalar eval harness, every holdout path applies one
// protocol, and the streaming path is safe under a real multi-threaded
// pool (this binary is one the TSan configuration targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "data/split.h"
#include "eval/adversarial.h"
#include "sim/generator.h"

namespace hdd::core {
namespace {

// A deterministic scorer for streaming tests: the "model" output is the
// first feature verbatim, so tests control outputs exactly.
class PassThroughScorer final : public SampleScorer {
 public:
  double predict(std::span<const float> x) const override {
    return static_cast<double>(x[0]);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = static_cast<double>(xs[r]);
    }
  }
  int num_features() const override { return 1; }
  std::string summary() const override { return "pass-through"; }
};

smart::FeatureSet one_feature() {
  return {"raw", {{smart::Attr::kPowerOnHours, 0}}};
}

// A tiny family-W fleet with a trained paper-CT predictor, shared across
// the end-to-end tests.
class FleetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = sim::paper_fleet_config(0.05, 12);
    config.families.resize(1);
    fleet_ = new data::DriveDataset(sim::generate_fleet_window(config, 0, 1));
    split_ = new data::DatasetSplit(data::split_dataset(*fleet_, {}));
    predictor_ = new FailurePredictor(preset("ct"));
    predictor_->fit(*fleet_, *split_);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete split_;
    delete fleet_;
    predictor_ = nullptr;
    split_ = nullptr;
    fleet_ = nullptr;
  }
  static data::DriveDataset* fleet_;
  static data::DatasetSplit* split_;
  static FailurePredictor* predictor_;
};

data::DriveDataset* FleetFixture::fleet_ = nullptr;
data::DatasetSplit* FleetFixture::split_ = nullptr;
FailurePredictor* FleetFixture::predictor_ = nullptr;

// --- DriveVoteState vs eval::vote_drive -------------------------------------

TEST(DriveVoteState, MatchesVoteDriveOnRandomSequences) {
  Rng rng(91);
  for (int trial = 0; trial < 300; ++trial) {
    eval::DriveScores s;
    const auto len = rng.uniform_int(40);
    for (std::size_t i = 0; i < len; ++i) {
      s.outputs.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      s.hours.push_back(static_cast<std::int64_t>(3 * i + 1));
    }
    eval::VoteConfig cfg;
    cfg.voters = 1 + static_cast<int>(rng.uniform_int(15));
    cfg.average_mode = rng.chance(0.5);
    cfg.threshold = rng.uniform(-0.5, 0.5);

    DriveVoteState st(cfg);
    int alarms_signalled = 0;
    for (std::size_t i = 0; i < len; ++i) {
      alarms_signalled += st.push(s.hours[i], s.outputs[i]) ? 1 : 0;
    }
    alarms_signalled += st.finish() ? 1 : 0;

    const auto expected = eval::vote_drive(s, cfg);
    ASSERT_EQ(st.alarmed(), expected.alarmed)
        << "trial " << trial << " len " << len << " N " << cfg.voters
        << " avg " << cfg.average_mode;
    if (expected.alarmed) {
      ASSERT_EQ(st.alarm_hour(), expected.alarm_hour) << "trial " << trial;
    }
    // push/finish return true exactly once, at the first alarm; pushes
    // after the alarm are no-ops, so samples_seen stops there.
    EXPECT_EQ(alarms_signalled, expected.alarmed ? 1 : 0) << "trial " << trial;
    if (!expected.alarmed) {
      EXPECT_EQ(st.samples_seen(), static_cast<std::int64_t>(len));
    } else {
      EXPECT_LE(st.samples_seen(), static_cast<std::int64_t>(len));
    }
  }
}

TEST(DriveVoteState, ShortRecordVotesOnceAtFinish) {
  eval::VoteConfig cfg;
  cfg.voters = 11;
  // 3 samples, 2 failed: the short-record rule alarms at the last sample.
  DriveVoteState st(cfg);
  EXPECT_FALSE(st.push(0, -1.0));
  EXPECT_FALSE(st.push(1, -1.0));
  EXPECT_FALSE(st.push(2, 1.0));
  EXPECT_FALSE(st.alarmed());
  EXPECT_TRUE(st.finish());
  EXPECT_TRUE(st.alarmed());
  EXPECT_EQ(st.alarm_hour(), 2);
  EXPECT_FALSE(st.finish());  // idempotent

  // Minority of failed samples: no alarm even at finish.
  DriveVoteState clean(cfg);
  clean.push(0, -1.0);
  clean.push(1, 1.0);
  clean.push(2, 1.0);
  EXPECT_FALSE(clean.finish());
  EXPECT_FALSE(clean.alarmed());

  // An empty record never alarms.
  DriveVoteState empty(cfg);
  EXPECT_FALSE(empty.finish());
}

TEST(DriveVoteState, PushIsNoopOnceAlarmed) {
  eval::VoteConfig cfg;
  cfg.voters = 1;
  DriveVoteState st(cfg);
  EXPECT_TRUE(st.push(7, -1.0));
  EXPECT_EQ(st.alarm_hour(), 7);
  EXPECT_FALSE(st.push(8, -1.0));
  EXPECT_EQ(st.alarm_hour(), 7);
  EXPECT_EQ(st.samples_seen(), 1);

  st.reset();
  EXPECT_FALSE(st.alarmed());
  EXPECT_EQ(st.samples_seen(), 0);
  EXPECT_TRUE(st.push(9, -1.0));
  EXPECT_EQ(st.alarm_hour(), 9);
}

TEST(DriveVoteState, RejectsZeroVoters) {
  eval::VoteConfig cfg;
  cfg.voters = 0;
  EXPECT_THROW(DriveVoteState{cfg}, ConfigError);
}

// --- Streaming mode ----------------------------------------------------------

TEST(FleetScorerStreaming, MatchesOfflineVotingUnderParallelism) {
  // 1000 drives, 40 intervals, small blocks, a real 4-thread pool: every
  // drive's streaming outcome must equal eval::vote_drive over its full
  // output sequence. Run under -DHDD_SANITIZE=thread this is the
  // data-race check for observe_interval's block partitioning.
  Rng rng(92);
  const std::size_t n_drives = 1000;
  const std::size_t n_intervals = 40;

  PassThroughScorer model;
  ThreadPool pool(4);
  FleetScorerConfig cfg;
  cfg.features = one_feature();
  cfg.vote.voters = 5;
  cfg.block_rows = 64;
  cfg.pool = &pool;
  FleetScorer scorer(model, cfg);

  for (std::size_t i = 0; i < n_drives; ++i) {
    EXPECT_EQ(scorer.add_drive("drive-" + std::to_string(i)), i);
  }
  ASSERT_EQ(scorer.size(), n_drives);

  // Column i of `snapshots` is drive i's model-output sequence.
  std::vector<std::vector<float>> snapshots(n_intervals);
  for (auto& snap : snapshots) {
    snap.resize(n_drives);
    for (auto& v : snap) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t t = 0; t < n_intervals; ++t) {
    scorer.observe_interval(snapshots[t], static_cast<std::int64_t>(t));
  }

  std::size_t expected_alarms = 0;
  for (std::size_t i = 0; i < n_drives; ++i) {
    eval::DriveScores s;
    for (std::size_t t = 0; t < n_intervals; ++t) {
      s.outputs.push_back(snapshots[t][i]);
      s.hours.push_back(static_cast<std::int64_t>(t));
    }
    const auto expected = eval::vote_drive(s, cfg.vote);
    const DriveVoteState& st = scorer.state(i);
    ASSERT_EQ(st.alarmed(), expected.alarmed) << "drive " << i;
    if (expected.alarmed) {
      ASSERT_EQ(st.alarm_hour(), expected.alarm_hour) << "drive " << i;
      ++expected_alarms;
    }
  }
  EXPECT_EQ(scorer.alarm_count(), expected_alarms);
  const auto alarmed = scorer.alarmed_drives();
  EXPECT_EQ(alarmed.size(), expected_alarms);
  EXPECT_TRUE(std::is_sorted(alarmed.begin(), alarmed.end()));

  scorer.reset();
  EXPECT_EQ(scorer.alarm_count(), 0u);
  EXPECT_EQ(scorer.size(), n_drives);  // registry survives reset
}

TEST(FleetScorerStreaming, ValidatesSnapshotShape) {
  PassThroughScorer model;
  FleetScorerConfig cfg;
  cfg.features = one_feature();
  FleetScorer scorer(model, cfg);
  scorer.add_drive("a");
  scorer.add_drive("b");
  EXPECT_EQ(scorer.serial(1), "b");

  const std::vector<float> wrong(3, 0.0f);
  EXPECT_THROW(scorer.observe_interval(wrong, 0), ConfigError);

  data::DataMatrix m(2);  // two columns, but the model has one feature
  const std::vector<float> row{0.5f, 0.5f};
  m.add_row(row, 0.0f);
  m.add_row(row, 0.0f);
  EXPECT_THROW(scorer.observe_interval(m, 0), ConfigError);
}

TEST(FleetScorer, RejectsMismatchedFeatureWidth) {
  PassThroughScorer model;  // one input
  FleetScorerConfig cfg;
  cfg.features = smart::stat13_features();  // thirteen columns
  EXPECT_THROW((FleetScorer{model, cfg}), ConfigError);

  cfg.features = one_feature();
  cfg.block_rows = 0;
  EXPECT_THROW((FleetScorer{model, cfg}), ConfigError);
}

// --- Replay / evaluation vs the scalar eval harness --------------------------

TEST_F(FleetFixture, ReplayMatchesScoreRecordPlusVoteDrive) {
  const auto& features = predictor_->config().training.features;
  const auto& vote = predictor_->config().vote;
  FleetScorerConfig cfg;
  cfg.features = features;
  cfg.vote = vote;
  cfg.block_rows = 32;  // force several blocks per drive
  FleetScorer scorer(predictor_->scorer(), cfg);

  const auto outcomes = scorer.replay(*fleet_);
  ASSERT_EQ(outcomes.size(), fleet_->drives.size());

  const auto model = predictor_->sample_model();
  for (std::size_t i = 0; i < fleet_->drives.size(); ++i) {
    const auto scores = eval::score_record(fleet_->drives[i], 0, features,
                                           model);
    const auto expected = eval::vote_drive(scores, vote);
    ASSERT_EQ(outcomes[i].alarmed, expected.alarmed) << "drive " << i;
    ASSERT_EQ(outcomes[i].alarm_hour, expected.alarm_hour) << "drive " << i;
  }
}

TEST_F(FleetFixture, EvaluateMatchesScalarEvalHarness) {
  const auto& features = predictor_->config().training.features;
  const auto& vote = predictor_->config().vote;
  FleetScorerConfig cfg;
  cfg.features = features;
  cfg.vote = vote;
  FleetScorer scorer(predictor_->scorer(), cfg);

  const auto batched = scorer.evaluate(*fleet_, *split_);
  const auto scalar = eval::evaluate(*fleet_, *split_, features,
                                     predictor_->sample_model(), vote);

  EXPECT_EQ(batched.n_good, scalar.n_good);
  EXPECT_EQ(batched.n_failed, scalar.n_failed);
  EXPECT_EQ(batched.false_alarms, scalar.false_alarms);
  EXPECT_EQ(batched.detections, scalar.detections);
  ASSERT_EQ(batched.tia_hours.size(), scalar.tia_hours.size());
  std::vector<double> a = batched.tia_hours, b = scalar.tia_hours;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "tia " << i;
  }

  // And the facade's own evaluate() routes through the same batched path.
  const auto facade = predictor_->evaluate(*fleet_, *split_);
  EXPECT_EQ(facade.detections, batched.detections);
  EXPECT_EQ(facade.false_alarms, batched.false_alarms);
}

TEST_F(FleetFixture, ScorerSummaryAndTreeExposed) {
  const SampleScorer& s = predictor_->scorer();
  EXPECT_EQ(s.num_features(),
            static_cast<int>(predictor_->config().training.features.size()));
  EXPECT_FALSE(s.summary().empty());
  EXPECT_NE(s.tree(), nullptr);  // CT backend exposes its tree
  EXPECT_EQ(s.tree(), predictor_->tree());

  // predict_batch(DataMatrix) validates the column count.
  data::DataMatrix wrong(2);
  const std::vector<float> row{0.0f, 0.0f};
  wrong.add_row(row, 0.0f);
  std::vector<double> out(1);
  EXPECT_THROW(s.predict_batch(wrong, out), ConfigError);
}

// --- One holdout protocol across every evaluation path ----------------------

// A drive whose pass-through model output at sample i is outputs[i].
smart::DriveRecord output_drive(const std::vector<float>& outputs,
                                bool failed) {
  smart::DriveRecord d;
  d.failed = failed;
  d.fail_hour = failed ? 2 * static_cast<std::int64_t>(outputs.size()) : -1;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    smart::Sample s;
    s.hour = 2 * static_cast<std::int64_t>(i);
    s.set(smart::Attr::kPowerOnHours, outputs[i]);
    d.samples.push_back(s);
  }
  return d;
}

TEST(HoldoutEquivalence, EveryPathAgreesOnProtocolEdgeCases) {
  data::DriveDataset ds;
  data::DatasetSplit split;
  auto good = [&](std::vector<float> outputs, std::size_t test_begin) {
    split.good_drives.push_back(ds.drives.size());
    split.good_test_begin.push_back(test_begin);
    ds.drives.push_back(output_drive(outputs, false));
  };
  auto failed = [&](std::vector<float> outputs) {
    split.test_failed.push_back(ds.drives.size());
    ds.drives.push_back(output_drive(outputs, true));
  };
  // Good drives: test portion empty (begin == length, begin > length); a
  // failing look confined to the training portion; a false alarm.
  good({-1, -1, -1, -1}, 4);
  good({-1, -1, -1}, 9);
  good({-1, -1, -1, 0.9f, 0.8f, 0.7f, 0.9f}, 3);
  good({0.9f, 0.8f, -0.7f, -0.9f, 0.6f, 0.9f}, 0);
  // Failed drives: empty record; shorter than N, alarming at finish();
  // shorter than N, clean; alarming on the last sample; alarming early;
  // never alarming.
  failed({});
  failed({-0.9f, -0.6f});
  failed({-0.9f, 0.8f});
  failed({0.9f, 0.7f, 0.8f, -0.6f, -0.9f});
  failed({-0.8f, -0.9f, -0.7f, 0.9f, 0.9f, 0.9f});
  failed({0.9f, 0.8f, 0.7f, 0.9f});

  PassThroughScorer scorer;
  const smart::FeatureSet features = one_feature();
  const eval::SampleModel model = [&](std::span<const float> x) {
    return scorer.predict(x);
  };
  const eval::BatchSampleModel batch =
      [&](std::span<const float> xs, std::span<double> out) {
        scorer.predict_batch(xs, out);
      };

  eval::VoteConfig majority;
  majority.voters = 3;
  eval::VoteConfig average = majority;
  average.average_mode = true;
  average.threshold = -0.2;
  for (const eval::VoteConfig& vote : {majority, average}) {
    SCOPED_TRACE(vote.average_mode ? "average mode" : "majority mode");
    const auto expected = eval::evaluate(ds, split, features, model, vote);
    // Two good drives and five non-empty failed records are scored; the
    // good drive with a burst at samples 2-3 false-alarms, and the second,
    // fourth and fifth failed records are detected, in test_failed order.
    EXPECT_EQ(expected.n_good, 2u);
    EXPECT_EQ(expected.n_failed, 5u);
    EXPECT_EQ(expected.false_alarms, 1u);
    EXPECT_EQ(expected.detections, 3u);
    EXPECT_EQ(expected.tia_hours, (std::vector<double>{2.0, 2.0, 8.0}));

    FleetScorerConfig cfg;
    cfg.features = features;
    cfg.vote = vote;
    cfg.block_rows = 2;  // several blocks per drive
    const FleetScorer fleet(scorer, cfg);
    eval::AdversarialConfig adv;
    adv.vote = vote;
    adv.epsilons = {0.01};
    const eval::EvalResult others[] = {
        eval::evaluate_batch(ds, split, features, batch, vote),
        fleet.evaluate(ds, split),
        eval::adversarial_evaluate(ds, split, features, model, adv).baseline,
    };
    for (const eval::EvalResult& r : others) {
      EXPECT_EQ(r.n_good, expected.n_good);
      EXPECT_EQ(r.n_failed, expected.n_failed);
      EXPECT_EQ(r.false_alarms, expected.false_alarms);
      EXPECT_EQ(r.detections, expected.detections);
      EXPECT_EQ(r.tia_hours, expected.tia_hours);
    }
  }
}

}  // namespace
}  // namespace hdd::core
