// Tests for src/core: the FailurePredictor facade (all model types), paper
// preset configurations, the health-degree model (Eq. 5/6), the warning
// queue, and tree persistence.
#include <gtest/gtest.h>

#include "common/error.h"

#include <sstream>

#include "core/health.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/split.h"
#include "sim/generator.h"

namespace hdd::core {
namespace {

// A tiny family-W fleet shared by the suite (kept small for speed).
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = sim::paper_fleet_config(0.05, 12);
    config.families.resize(1);
    fleet_ = new data::DriveDataset(sim::generate_fleet_window(config, 0, 1));
    split_ = new data::DatasetSplit(data::split_dataset(*fleet_, {}));
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete split_;
    fleet_ = nullptr;
    split_ = nullptr;
  }
  static data::DriveDataset* fleet_;
  static data::DatasetSplit* split_;
};

data::DriveDataset* CoreFixture::fleet_ = nullptr;
data::DatasetSplit* CoreFixture::split_ = nullptr;

TEST(PaperConfigs, MatchPublishedSettings) {
  const auto ct = paper_ct_config();
  EXPECT_EQ(ct.model, ModelType::kClassificationTree);
  EXPECT_EQ(ct.training.features.name, "stat13");
  EXPECT_EQ(ct.training.failed_window_hours, 168);
  EXPECT_DOUBLE_EQ(ct.training.failed_prior, 0.20);
  EXPECT_DOUBLE_EQ(ct.training.loss_false_alarm, 10.0);
  EXPECT_EQ(ct.tree_params.min_split, 20);
  EXPECT_EQ(ct.tree_params.min_bucket, 7);
  EXPECT_DOUBLE_EQ(ct.tree_params.cp, 0.001);
  EXPECT_EQ(ct.vote.voters, 11);

  const auto ann = paper_ann_config();
  EXPECT_EQ(ann.model, ModelType::kBpAnn);
  EXPECT_EQ(ann.training.failed_window_hours, 12);
  EXPECT_EQ(ann.ann.hidden, 13);  // 13-13-1 topology
  EXPECT_DOUBLE_EQ(ann.ann.learning_rate, 0.1);
  EXPECT_EQ(ann.ann.epochs, 400);

  const auto rt = paper_rt_classifier_config();
  EXPECT_EQ(rt.model, ModelType::kRegressionTree);
  EXPECT_TRUE(rt.vote.average_mode);
}

TEST(PredictorCtor, RejectsEmptyFeatures) {
  PredictorConfig cfg;
  cfg.training.features.specs.clear();
  EXPECT_THROW(FailurePredictor{cfg}, ConfigError);
}

TEST(ModelTypeNames, AllDistinct) {
  EXPECT_STREQ(model_type_name(ModelType::kClassificationTree), "CT");
  EXPECT_STREQ(model_type_name(ModelType::kRegressionTree), "RT");
  EXPECT_STREQ(model_type_name(ModelType::kBpAnn), "BP ANN");
  EXPECT_STREQ(model_type_name(ModelType::kRandomForest), "RandomForest");
  EXPECT_STREQ(model_type_name(ModelType::kAdaBoost), "AdaBoost");
}

TEST(ModelTypeNames, OutOfRangeValueThrows) {
  EXPECT_THROW(model_type_name(static_cast<ModelType>(99)), ConfigError);
  EXPECT_THROW(model_type_name(static_cast<ModelType>(-1)), ConfigError);
}

// --- Preset registry --------------------------------------------------------

TEST(Presets, RegistryCoversThePaperConfigs) {
  const auto all = presets();
  ASSERT_EQ(all.size(), 4u);
  for (const auto& p : all) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.description.empty());
    // Every registered preset builds a config that passes validation.
    p.make().validate();
  }

  EXPECT_EQ(preset("ct").model, ModelType::kClassificationTree);
  EXPECT_EQ(preset("ann").model, ModelType::kBpAnn);
  EXPECT_EQ(preset("rt").model, ModelType::kRegressionTree);
  EXPECT_TRUE(preset("rt").vote.average_mode);
  EXPECT_EQ(preset("forest").model, ModelType::kRandomForest);
  EXPECT_EQ(preset("forest").forest.n_trees, 40);
  // The registry resolves to the same settings as the underlying functions.
  EXPECT_EQ(preset("ct").tree_params.min_split,
            paper_ct_config().tree_params.min_split);
  EXPECT_EQ(preset("ann").ann.epochs, paper_ann_config().ann.epochs);
}

TEST(Presets, UnknownNameThrowsListingKnownNames) {
  try {
    preset("banana");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("banana"), std::string::npos);
    EXPECT_NE(msg.find("ct"), std::string::npos);
    EXPECT_NE(msg.find("ann"), std::string::npos);
  }
}

// --- PredictorConfig::validate ----------------------------------------------

TEST(PredictorConfigValidate, RejectsBadVotingAndTrainingParameters) {
  {
    auto cfg = paper_ct_config();
    cfg.vote.voters = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    EXPECT_THROW(FailurePredictor{cfg}, ConfigError);  // ctor validates
  }
  {
    auto cfg = paper_ct_config();
    cfg.training.failed_window_hours = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
  }
  {
    auto cfg = paper_ct_config();
    cfg.training.failed_prior = 1.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
  }
  {
    auto cfg = paper_ct_config();
    cfg.training.good_samples_per_drive = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
  }
  {
    auto cfg = paper_ct_config();
    cfg.training.loss_false_alarm = 0.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
  }
  {
    auto cfg = paper_ct_config();
    cfg.model = static_cast<ModelType>(42);
    EXPECT_THROW(cfg.validate(), ConfigError);
  }
}

TEST(PredictorConfigValidate, ChecksOnlyTheSelectedModelsParameters) {
  auto cfg = paper_ct_config();
  cfg.ann.hidden = 0;  // broken, but the ANN is not selected
  cfg.validate();
  cfg.model = ModelType::kBpAnn;
  EXPECT_THROW(cfg.validate(), ConfigError);

  cfg = paper_ct_config();
  cfg.forest.n_trees = 0;
  cfg.validate();
  cfg.model = ModelType::kRandomForest;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST_F(CoreFixture, CtModelTrainsAndDetects) {
  FailurePredictor p(paper_ct_config());
  EXPECT_FALSE(p.trained());
  p.fit(*fleet_, *split_);
  EXPECT_TRUE(p.trained());
  ASSERT_NE(p.tree(), nullptr);
  EXPECT_GT(p.tree()->node_count(), 1u);

  const auto r = p.evaluate(*fleet_, *split_);
  EXPECT_GT(r.fdr(), 0.7);
  EXPECT_LT(r.far(), 0.05);
  EXPECT_GT(r.mean_tia(), 100.0);
}

TEST_F(CoreFixture, EveryModelTypeTrainsThroughTheFacade) {
  for (const auto type :
       {ModelType::kClassificationTree, ModelType::kRegressionTree,
        ModelType::kBpAnn, ModelType::kRandomForest, ModelType::kAdaBoost}) {
    auto cfg = paper_ct_config();
    cfg.model = type;
    cfg.ann.epochs = 30;        // keep the suite fast
    cfg.forest.n_trees = 8;
    cfg.adaboost.n_rounds = 5;
    FailurePredictor p(cfg);
    p.fit(*fleet_, *split_);
    EXPECT_TRUE(p.trained()) << model_type_name(type);
    const auto r = p.evaluate(*fleet_, *split_);
    EXPECT_GT(r.fdr(), 0.5) << model_type_name(type);
    // The facade exposes the tree only for tree-based models.
    if (type == ModelType::kClassificationTree ||
        type == ModelType::kRegressionTree) {
      EXPECT_NE(p.tree(), nullptr);
    } else {
      EXPECT_EQ(p.tree(), nullptr);
    }
    EXPECT_FALSE(p.describe().empty());
  }
}

TEST_F(CoreFixture, ScoreSampleAndDetectAgree) {
  FailurePredictor p(paper_ct_config());
  p.fit(*fleet_, *split_);
  // Find a failed test drive that the model alarms on.
  for (std::size_t di : split_->test_failed) {
    const auto& d = fleet_->drives[di];
    if (d.empty()) continue;
    const auto outcome = p.detect(d);
    if (!outcome.alarmed) continue;
    // At the alarm hour, a majority of the last N sample scores are bad.
    const auto idx = d.last_sample_at_or_before(outcome.alarm_hour);
    ASSERT_GE(idx, 0);
    int bad = 0, total = 0;
    for (std::int64_t i = idx;
         i >= 0 && total < p.config().vote.voters; --i, ++total) {
      bad += p.score_sample(d, static_cast<std::size_t>(i)) < 0.0;
    }
    EXPECT_GT(2 * bad, total);
    return;
  }
  GTEST_SKIP() << "no alarmed failed drive in this tiny fixture";
}

// detect() is the batched, early-exit path (eval::detect_record); it must
// decide exactly as voting over the row-by-row scores of the whole record.
TEST_F(CoreFixture, DetectEqualsVoteOverScoredRecord) {
  FailurePredictor ct(paper_ct_config());
  ct.fit(*fleet_, *split_);
  HealthDegreeModel rt;
  rt.fit(*fleet_, *split_);
  eval::VoteConfig average;
  average.voters = rt.config().voters;
  average.average_mode = true;
  average.threshold = rt.config().threshold;
  const auto& features = ct.config().training.features;
  std::size_t ct_alarms = 0, rt_alarms = 0;
  for (const auto& d : fleet_->drives) {
    const auto ct_want = eval::vote_drive(
        eval::score_record(d, 0, features, ct.sample_model()),
        ct.config().vote);
    const auto ct_got = ct.detect(d);
    EXPECT_EQ(ct_got.alarmed, ct_want.alarmed) << d.serial;
    EXPECT_EQ(ct_got.alarm_hour, ct_want.alarm_hour) << d.serial;
    ct_alarms += ct_got.alarmed ? 1 : 0;

    const auto rt_want = eval::vote_drive(
        eval::score_record(d, 0, rt.config().ct_config.training.features,
                           rt.sample_model()),
        average);
    const auto rt_got = rt.detect(d);
    EXPECT_EQ(rt_got.alarmed, rt_want.alarmed) << d.serial;
    EXPECT_EQ(rt_got.alarm_hour, rt_want.alarm_hour) << d.serial;
    rt_alarms += rt_got.alarmed ? 1 : 0;
  }
  // Both voting modes must actually alarm somewhere for this to mean much.
  EXPECT_GT(ct_alarms, 0u);
  EXPECT_GT(rt_alarms, 0u);
}

TEST_F(CoreFixture, UntrainedPredictorRefusesToPredict) {
  FailurePredictor p(paper_ct_config());
  EXPECT_THROW(p.sample_model(), ConfigError);
  EXPECT_THROW(p.detect(fleet_->drives[0]), ConfigError);
}

// --- Health-degree model ----------------------------------------------------

TEST_F(CoreFixture, HealthModelPersonalizedWindows) {
  HealthModelConfig cfg;
  cfg.personalized = true;
  HealthDegreeModel model(cfg);
  model.fit(*fleet_, *split_);
  EXPECT_TRUE(model.trained());
  // One window per failed training drive, each positive and <= record span.
  EXPECT_EQ(model.windows().size(), split_->train_failed.size());
  for (const auto& [serial, w] : model.windows()) {
    EXPECT_GT(w, 0);
    EXPECT_LE(w, 20 * 24 + 1);
  }
}

TEST_F(CoreFixture, HealthModelGlobalMode) {
  HealthModelConfig cfg;
  cfg.personalized = false;
  cfg.global_window_hours = 96;
  HealthDegreeModel model(cfg);
  model.fit(*fleet_, *split_);
  EXPECT_TRUE(model.trained());
  EXPECT_TRUE(model.windows().empty());
}

TEST_F(CoreFixture, HealthOutputsAreBoundedAndOrdered) {
  HealthDegreeModel model;
  model.fit(*fleet_, *split_);
  // Health degree lies in [-1, 1]; failed drives trend downward toward
  // failure (on average over the population).
  double early_sum = 0.0, late_sum = 0.0;
  int counted = 0;
  for (std::size_t di : split_->test_failed) {
    const auto& d = fleet_->drives[di];
    if (d.samples.size() < 40) continue;
    const double early = model.health(d, 0);
    const double late = model.health(d, d.samples.size() - 1);
    EXPECT_GE(early, -1.0);
    EXPECT_LE(early, 1.0);
    early_sum += early;
    late_sum += late;
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_LT(late_sum / counted, early_sum / counted);
}

TEST_F(CoreFixture, HealthThresholdTradesOffDetection) {
  HealthDegreeModel model;
  model.fit(*fleet_, *split_);
  const auto strict = model.evaluate(*fleet_, *split_, -0.6);
  const auto loose = model.evaluate(*fleet_, *split_, 0.0);
  EXPECT_GE(loose.fdr(), strict.fdr());
  EXPECT_GE(loose.far(), strict.far());
}

TEST_F(CoreFixture, HealthEvaluateMatchesScalarEvaluate) {
  HealthDegreeModel model;
  model.fit(*fleet_, *split_);
  const auto& features = model.config().ct_config.training.features;
  for (const double threshold : {-0.6, 0.0}) {
    const auto batched = model.evaluate(*fleet_, *split_, threshold);
    const auto scalar = eval::evaluate(
        *fleet_, *split_, features, model.sample_model(),
        {.voters = model.config().voters,
         .average_mode = true,
         .threshold = threshold});
    EXPECT_EQ(batched.n_good, scalar.n_good) << threshold;
    EXPECT_EQ(batched.n_failed, scalar.n_failed) << threshold;
    EXPECT_EQ(batched.false_alarms, scalar.false_alarms) << threshold;
    EXPECT_EQ(batched.detections, scalar.detections) << threshold;
    EXPECT_EQ(batched.tia_hours, scalar.tia_hours) << threshold;
  }
}

TEST(HealthConfig, Validation) {
  HealthModelConfig cfg;
  cfg.global_window_hours = 0;
  EXPECT_THROW(HealthDegreeModel{cfg}, ConfigError);
  cfg = HealthModelConfig{};
  cfg.failed_samples_per_drive = 0;
  EXPECT_THROW(HealthDegreeModel{cfg}, ConfigError);
}

TEST(WarningQueue, OrdersByHealthWorstFirst) {
  WarningQueue q;
  EXPECT_TRUE(q.empty());
  q.push({"a", -0.2, 0});
  q.push({"b", -0.9, 1});
  q.push({"c", 0.5, 2});
  q.push({"d", -0.5, 3});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().serial, "b");
  EXPECT_EQ(q.pop().serial, "d");
  EXPECT_EQ(q.pop().serial, "a");
  EXPECT_EQ(q.pop().serial, "c");
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), ConfigError);
}

// --- Model persistence ------------------------------------------------------

TEST_F(CoreFixture, TreeSaveLoadRoundTrip) {
  FailurePredictor p(paper_ct_config());
  p.fit(*fleet_, *split_);
  std::ostringstream os;
  save_tree(*p.tree(), os);

  std::istringstream is(os.str());
  const auto loaded = load_tree(is);
  EXPECT_EQ(loaded.task(), tree::Task::kClassification);
  EXPECT_EQ(loaded.num_features(), p.tree()->num_features());
  EXPECT_EQ(loaded.node_count(), p.tree()->node_count());

  // Identical predictions on live telemetry.
  const auto& d = fleet_->drives[0];
  const auto& features = p.config().training.features;
  for (std::size_t i = 0; i < std::min<std::size_t>(d.samples.size(), 20);
       ++i) {
    const auto row = smart::extract_features(d, i, features);
    EXPECT_DOUBLE_EQ(loaded.predict(*row), p.tree()->predict(*row));
  }
}

TEST(ModelIo, RejectsMalformedInput) {
  {
    std::istringstream is("not a tree file\n");
    EXPECT_THROW(load_tree(is), DataError);
  }
  {
    std::istringstream is("hddpred-tree v1\ntask banana\n");
    EXPECT_THROW(load_tree(is), DataError);
  }
  {
    std::istringstream is(
        "hddpred-tree v1\ntask classification\nfeatures 2\nnodes 1\n");
    EXPECT_THROW(load_tree(is), DataError);  // truncated node list
  }
  {
    // Node referencing an out-of-range child.
    std::istringstream is(
        "hddpred-tree v1\ntask classification\nfeatures 2\nnodes 1\n"
        "5 6 0 0.5 0 1 1 0\n");
    EXPECT_THROW(load_tree(is), DataError);
  }
}

TEST(ModelIo, SaveRejectsUntrainedTree) {
  tree::DecisionTree t;
  std::ostringstream os;
  EXPECT_THROW(save_tree(t, os), ConfigError);
}

}  // namespace
}  // namespace hdd::core
