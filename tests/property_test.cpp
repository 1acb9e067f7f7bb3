// Cross-cutting property tests: each checks an implementation against an
// independent reference — a brute-force re-implementation, an algebraic
// identity, or a Monte Carlo estimate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <variant>

#include "ann/mlp.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "eval/detection.h"
#include "forest/adaboost.h"
#include "forest/random_forest.h"
#include "reliability/markov.h"
#include "reliability/raid.h"
#include "stats/nonparametric.h"
#include "tree/tree.h"

namespace hdd {
namespace {

// --- Voting detector vs a brute-force reference ----------------------------

// Reference implementation: for every time point, recount the window from
// scratch (the production code maintains a sliding window incrementally).
eval::DriveOutcome vote_reference(const eval::DriveScores& s,
                                  const eval::VoteConfig& cfg) {
  eval::DriveOutcome out;
  const std::size_t n = s.outputs.size();
  const auto want = static_cast<std::size_t>(cfg.voters);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = std::min(i + 1, want);
    if (w < want && i + 1 < n) continue;
    std::size_t bad = 0;
    double sum = 0.0;
    for (std::size_t j = i + 1 - w; j <= i; ++j) {
      if (s.outputs[j] < 0.0f) ++bad;
      sum += s.outputs[j];
    }
    const bool alarm = cfg.average_mode
                           ? sum / static_cast<double>(w) < cfg.threshold
                           : 2 * bad > w;
    if (alarm) {
      out.alarmed = true;
      out.alarm_hour = s.hours[i];
      return out;
    }
  }
  return out;
}

class VotingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VotingProperty, MatchesBruteForceOnRandomSequences) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    eval::DriveScores s;
    const auto len = rng.uniform_int(40);
    for (std::size_t i = 0; i < len; ++i) {
      s.outputs.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      s.hours.push_back(static_cast<std::int64_t>(i * 2));
    }
    eval::VoteConfig cfg;
    cfg.voters = 1 + static_cast<int>(rng.uniform_int(15));
    cfg.average_mode = rng.chance(0.5);
    cfg.threshold = rng.uniform(-0.5, 0.5);

    const auto fast = eval::vote_drive(s, cfg);
    const auto slow = vote_reference(s, cfg);
    ASSERT_EQ(fast.alarmed, slow.alarmed)
        << "trial " << trial << " len " << len << " N " << cfg.voters;
    if (fast.alarmed) {
      ASSERT_EQ(fast.alarm_hour, slow.alarm_hour) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VotingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Tree: integer weights == replicated rows -------------------------------

TEST(TreeWeightProperty, IntegerWeightsEquivalentToReplication) {
  Rng rng(42);
  data::DataMatrix weighted(2), replicated(2);
  for (int i = 0; i < 300; ++i) {
    const std::vector<float> row{static_cast<float>(rng.uniform()),
                                 static_cast<float>(rng.uniform())};
    const float y = rng.chance(0.4 + 0.4 * row[0]) ? 1.0f : -1.0f;
    const int w = 1 + static_cast<int>(rng.uniform_int(3));
    weighted.add_row(row, y, static_cast<float>(w));
    for (int c = 0; c < w; ++c) replicated.add_row(row, y, 1.0f);
  }
  // min_bucket/min_split count raw rows, which differ between the two
  // encodings — disable them so only the weighted statistics matter.
  tree::TreeParams p;
  p.min_split = 2;
  p.min_bucket = 1;
  p.cp = 0.01;
  tree::DecisionTree a, b;
  a.fit(weighted, tree::Task::kClassification, p);
  b.fit(replicated, tree::Task::kClassification, p);
  for (int i = 0; i < 200; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform())};
    EXPECT_NEAR(a.predict(x), b.predict(x), 1e-9);
  }
}

TEST(TreeRegressionWeightProperty, IntegerWeightsEquivalentToReplication) {
  Rng rng(43);
  data::DataMatrix weighted(1), replicated(1);
  for (int i = 0; i < 200; ++i) {
    const std::vector<float> row{static_cast<float>(rng.uniform())};
    const float y = row[0] * 3.0f + static_cast<float>(rng.normal(0, 0.1));
    const int w = 1 + static_cast<int>(rng.uniform_int(3));
    weighted.add_row(row, y, static_cast<float>(w));
    for (int c = 0; c < w; ++c) replicated.add_row(row, y, 1.0f);
  }
  tree::TreeParams p;
  p.min_split = 2;
  p.min_bucket = 1;
  p.cp = 0.01;
  tree::DecisionTree a, b;
  a.fit(weighted, tree::Task::kRegression, p);
  b.fit(replicated, tree::Task::kRegression, p);
  for (int i = 0; i < 100; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform())};
    EXPECT_NEAR(a.predict(x), b.predict(x), 1e-6);
  }
}

// --- Tree: prediction respects the stored split structure ------------------

TEST(TreeTraversalProperty, PredictMatchesManualDescent) {
  Rng rng(44);
  data::DataMatrix m(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<float> row{static_cast<float>(rng.uniform()),
                           static_cast<float>(rng.uniform()),
                           static_cast<float>(rng.uniform())};
    m.add_row(row, rng.chance(row[1]) ? 1.0f : -1.0f, 1.0f);
  }
  tree::DecisionTree t;
  tree::TreeParams p;
  p.min_split = 10;
  p.min_bucket = 5;
  t.fit(m, tree::Task::kClassification, p);
  ASSERT_GT(t.node_count(), 1u);

  for (int i = 0; i < 200; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform())};
    std::int32_t idx = 0;
    while (!t.nodes()[static_cast<std::size_t>(idx)].is_leaf()) {
      const auto& node = t.nodes()[static_cast<std::size_t>(idx)];
      idx = x[static_cast<std::size_t>(node.feature)] < node.threshold
                ? node.left
                : node.right;
    }
    EXPECT_DOUBLE_EQ(t.predict(x),
                     t.nodes()[static_cast<std::size_t>(idx)].value);
  }
}

// --- predict_batch is bit-identical to scalar predict ------------------------

// The FleetScorer/evaluate_batch fast paths lean on exact equality between
// the batched and row-at-a-time code paths (same accumulation order, same
// rounding). EXPECT_EQ on doubles below is deliberate: identical, not close.

data::DataMatrix random_rows(Rng& rng, std::size_t rows, std::size_t cols) {
  data::DataMatrix m(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    m.add_row(row, 0.0f, 1.0f);
  }
  return m;
}

template <typename Model>
void expect_batch_matches_scalar(const Model& model,
                                 const data::DataMatrix& queries,
                                 const char* what) {
  std::vector<double> batch(queries.rows());
  model.predict_batch(queries, batch);
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(batch[r], model.predict(queries.row(r)))
        << what << " row " << r;
  }
  // The raw row-major span overload is the same code path.
  std::vector<double> raw(queries.rows());
  model.predict_batch(queries.features(), raw);
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(raw[r], batch[r]) << what << " row " << r;
  }
}

TEST(BatchPredictProperty, BitIdenticalToScalarForEveryModelType) {
  Rng rng(47);
  const std::size_t cols = 5;

  data::DataMatrix cls_train(static_cast<int>(cols));
  data::DataMatrix reg_train(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (int i = 0; i < 600; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double margin = row[0] + 0.5 * row[1] + rng.normal(0.0, 0.3);
    cls_train.add_row(row, margin < 0.0 ? -1.0f : 1.0f, 1.0f);
    reg_train.add_row(row, static_cast<float>(margin), 1.0f);
  }
  // 257 rows: not a multiple of the trees' internal row block, so the tail
  // block is exercised too.
  const auto queries = random_rows(rng, 257, cols);

  tree::TreeParams params;
  params.min_split = 10;
  params.min_bucket = 5;

  tree::DecisionTree ct;
  ct.fit(cls_train, tree::Task::kClassification, params);
  ASSERT_GT(ct.node_count(), 1u);
  expect_batch_matches_scalar(ct, queries, "CT");

  tree::DecisionTree rt;
  rt.fit(reg_train, tree::Task::kRegression, params);
  ASSERT_GT(rt.node_count(), 1u);
  expect_batch_matches_scalar(rt, queries, "RT");

  forest::ForestConfig fc;
  fc.n_trees = 12;
  fc.tree_params = params;
  forest::RandomForest rf;
  rf.fit(cls_train, tree::Task::kClassification, fc);
  expect_batch_matches_scalar(rf, queries, "RandomForest");

  forest::AdaBoostConfig ac;
  ac.n_rounds = 8;
  forest::AdaBoost ab;
  ab.fit(cls_train, ac);
  expect_batch_matches_scalar(ab, queries, "AdaBoost");

  ann::MlpConfig mc;
  mc.hidden = 7;
  mc.epochs = 40;
  ann::MlpModel mlp;
  mlp.fit(cls_train, mc);
  expect_batch_matches_scalar(mlp, queries, "MLP");
}

TEST(BatchPredictProperty, EmptyBatchIsNoop) {
  Rng rng(48);
  const auto train = [&] {
    data::DataMatrix m(2);
    std::vector<float> row(2);
    for (int i = 0; i < 100; ++i) {
      for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      m.add_row(row, row[0] < 0 ? -1.0f : 1.0f, 1.0f);
    }
    return m;
  }();
  tree::DecisionTree t;
  t.fit(train, tree::Task::kClassification, {});
  t.predict_batch(std::span<const float>{}, std::span<double>{});
}

// --- Packed inference kernel vs a descent over the training nodes ----------

// Reference prediction straight from the training representation
// (DecisionTree::nodes(), the forest's member subspaces, AdaBoost's alpha *
// label rule), independent of the packed form every model predicts through.
double reference_leaf(const tree::DecisionTree& t, const float* x,
                      std::span<const int> columns = {}) {
  const auto& nodes = t.nodes();
  std::size_t i = 0;
  while (!nodes[i].is_leaf()) {
    const tree::Node& n = nodes[i];
    const auto f = static_cast<std::size_t>(n.feature);
    const float v = columns.empty() ? x[f] : x[columns[f]];
    i = static_cast<std::size_t>(v < n.threshold ? n.left : n.right);
  }
  return nodes[i].value;
}

double reference(const tree::DecisionTree& t, const float* x) {
  return reference_leaf(t, x);
}

double reference(const forest::RandomForest& f, const float* x) {
  double total = 0.0;
  for (std::size_t i = 0; i < f.tree_count(); ++i) {
    total += reference_leaf(f.member_tree(i), x, f.member_features(i));
  }
  return total / static_cast<double>(f.tree_count());
}

double reference(const forest::AdaBoost& b, const float* x) {
  double vote = 0.0, norm = 0.0;
  for (const auto& m : b.members()) {
    vote += m.alpha * (reference_leaf(m.tree, x) < 0.0 ? -1.0 : 1.0);
    norm += m.alpha;
  }
  return norm > 0.0 ? vote / norm : 0.0;
}

// Uniform rows with roughly one value in eight replaced by NaN, +Inf or
// -Inf.
std::vector<float> hostile_rows(Rng& rng, std::size_t rows, std::size_t cols) {
  constexpr float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
  std::vector<float> xs(rows * cols);
  for (float& v : xs) {
    v = rng.uniform_int(8) == 0 ? kSpecial[rng.uniform_int(3)]
                                : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return xs;
}

// Bit-for-bit (memcmp) equality of predict_batch and predict() with the
// reference, over block sizes around the common row-block boundaries.
template <typename Model>
void expect_kernel_matches_reference(const Model& model, std::size_t cols,
                                     Rng& rng, const std::string& what) {
  for (const std::size_t n : {0, 1, 7, 8, 9, 168, 256, 257, 1000}) {
    const auto xs = hostile_rows(rng, n, cols);
    std::vector<double> got(n);
    model.predict_batch(xs, got);
    for (std::size_t r = 0; r < n; ++r) {
      const float* x = xs.data() + r * cols;
      const double want = reference(model, x);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                std::bit_cast<std::uint64_t>(want))
          << what << ": block " << n << " row " << r << " batch " << got[r]
          << " reference " << want;
      const double scalar = model.predict(std::span<const float>(x, cols));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar),
                std::bit_cast<std::uint64_t>(want))
          << what << ": block " << n << " row " << r << " scalar";
    }
  }
}

template <typename Model>
Model round_trip(const Model& model) {
  std::stringstream ss;
  model.save(ss);
  core::LoadOptions unverified;
  unverified.verify = core::VerifyMode::kOff;
  return std::get<Model>(core::load_model(ss, unverified));
}

// A split on feature 0 whose left leaf is -0.0: a single tree must return
// it as -0.0, while ensembles sum from +0.0 exactly as their references do.
tree::DecisionTree negative_zero_tree(int cols) {
  std::vector<tree::Node> nodes(3);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 0;
  nodes[0].threshold = 0.0f;
  nodes[1].value = -0.0;
  nodes[2].value = 0.5;
  return tree::DecisionTree::from_nodes(nodes, tree::Task::kClassification,
                                        cols);
}

TEST(PackedKernelProperty, BitIdenticalToTrainingNodeDescent) {
  Rng rng(49);
  const std::size_t cols = 5;
  data::DataMatrix cls_train(static_cast<int>(cols));
  data::DataMatrix reg_train(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (int i = 0; i < 600; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double margin = row[0] + 0.5 * row[2] + rng.normal(0.0, 0.3);
    cls_train.add_row(row, margin < 0.0 ? -1.0f : 1.0f, 1.0f);
    reg_train.add_row(row, static_cast<float>(margin), 1.0f);
  }
  tree::TreeParams params;
  params.min_split = 10;
  params.min_bucket = 5;

  tree::DecisionTree ct;
  ct.fit(cls_train, tree::Task::kClassification, params);
  ASSERT_GT(ct.node_count(), 1u);
  tree::DecisionTree rt;
  rt.fit(reg_train, tree::Task::kRegression, params);
  ASSERT_GT(rt.node_count(), 1u);
  forest::ForestConfig fc;
  fc.n_trees = 12;
  fc.tree_params = params;
  forest::RandomForest rf;
  rf.fit(cls_train, tree::Task::kClassification, fc);
  forest::AdaBoostConfig ac;
  ac.n_rounds = 8;
  forest::AdaBoost ab;
  ab.fit(cls_train, ac);
  ASSERT_GT(ab.round_count(), 1u);

  const auto leaf_only = tree::DecisionTree::from_nodes(
      {tree::Node{.value = 0.25}}, tree::Task::kRegression,
      static_cast<int>(cols));
  const auto neg_zero = negative_zero_tree(static_cast<int>(cols));

  for (const bool reloaded : {false, true}) {
    const std::string tag = reloaded ? " (reloaded)" : "";
    const auto pick = [&](const auto& m) {
      return reloaded ? round_trip(m) : m;
    };
    expect_kernel_matches_reference(pick(ct), cols, rng, "CT" + tag);
    expect_kernel_matches_reference(pick(rt), cols, rng, "RT" + tag);
    expect_kernel_matches_reference(pick(rf), cols, rng, "forest" + tag);
    expect_kernel_matches_reference(pick(leaf_only), cols, rng,
                                    "single leaf" + tag);
    expect_kernel_matches_reference(pick(neg_zero), cols, rng,
                                    "-0.0 leaf" + tag);
    // AdaBoost has no file format; its members round-trip instead.
    std::vector<forest::AdaBoost::Member> members = ab.members();
    for (auto& m : members) m.tree = pick(m.tree);
    expect_kernel_matches_reference(forest::AdaBoost::from_members(members),
                                    cols, rng, "AdaBoost" + tag);
  }
}

TEST(PackedKernelProperty, NegativeZeroLeafSurvivesOnlyASingleTree) {
  const auto t = negative_zero_tree(1);
  const float x[] = {-1.0f};
  EXPECT_TRUE(std::signbit(t.predict(x)));
  // A one-member forest sums from +0.0, as its reference does.
  std::stringstream ss;
  ss << "hddpred-forest v1\nfeatures 1\ntrees 1\nsubspace 0\n";
  t.save(ss);
  const auto rf = forest::RandomForest::load(ss);
  EXPECT_FALSE(std::signbit(rf.predict(x)));
  Rng rng(50);
  expect_kernel_matches_reference(rf, 1, rng, "one-member forest");
}

// --- Rank-sum test vs brute-force U statistic --------------------------------

TEST(RankSumProperty, MatchesBruteForceUStatistic) {
  Rng rng(45);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs, ys;
    const auto nx = 3 + rng.uniform_int(40);
    const auto ny = 3 + rng.uniform_int(40);
    for (std::size_t i = 0; i < nx; ++i) {
      xs.push_back(std::round(rng.uniform(0, 20)));  // force ties
    }
    for (std::size_t i = 0; i < ny; ++i) {
      ys.push_back(std::round(rng.uniform(0, 20)));
    }
    // Brute force: U = #pairs (x > y) + 0.5 #ties; W = U + nx(nx+1)/2.
    double u = 0.0;
    for (double x : xs) {
      for (double y : ys) {
        if (x > y) u += 1.0;
        else if (x == y) u += 0.5;
      }
    }
    const double w = u + static_cast<double>(nx * (nx + 1)) / 2.0;
    const double mean_w =
        static_cast<double>(nx) * static_cast<double>(nx + ny + 1) / 2.0;
    const auto result = stats::rank_sum_test(xs, ys);
    // The production z must have the same sign and reproduce W - E[W]
    // (variance handled by the tie-corrected formula).
    if (std::fabs(w - mean_w) > 1e-9) {
      EXPECT_GT(result.z * (w - mean_w), 0.0) << "trial " << trial;
    } else {
      EXPECT_NEAR(result.z, 0.0, 1e-9);
    }
  }
}

// --- CTMC solver vs Monte Carlo ---------------------------------------------

TEST(MarkovProperty, MeanAbsorptionMatchesMonteCarlo) {
  // A small 3-transient-state chain with competing rates.
  reliability::MarkovChain chain;
  const int a = chain.add_state();
  const int b = chain.add_state();
  const int c = chain.add_state();
  const int f = chain.add_state();
  chain.set_absorbing(f);
  chain.add_transition(a, b, 1.0);
  chain.add_transition(a, c, 0.5);
  chain.add_transition(b, a, 2.0);
  chain.add_transition(b, f, 0.3);
  chain.add_transition(c, f, 0.2);
  chain.add_transition(c, b, 1.0);
  const double exact = chain.mean_time_to_absorption(a);

  // Monte Carlo simulation of the same chain.
  struct Exit {
    int to;
    double rate;
  };
  const std::vector<std::vector<Exit>> exits{
      {{b, 1.0}, {c, 0.5}}, {{a, 2.0}, {f, 0.3}}, {{b, 1.0}, {f, 0.2}}};
  Rng rng(46);
  double total = 0.0;
  const int runs = 20000;
  for (int run = 0; run < runs; ++run) {
    int state = a;
    double t = 0.0;
    while (state != f) {
      double rate_sum = 0.0;
      for (const auto& e : exits[static_cast<std::size_t>(state)]) {
        rate_sum += e.rate;
      }
      t += rng.exponential(rate_sum);
      double pick = rng.uniform(0.0, rate_sum);
      for (const auto& e : exits[static_cast<std::size_t>(state)]) {
        pick -= e.rate;
        if (pick <= 0.0) {
          state = e.to;
          break;
        }
      }
    }
    total += t;
  }
  const double mc = total / runs;
  EXPECT_NEAR(mc / exact, 1.0, 0.05);
}

TEST(RaidCtmcProperty, SingleToleratedFailureMatchesClassicFormulaScan) {
  // k = 0 RAID-5 CTMC vs the closic closed form across a size sweep.
  for (int n : {4, 8, 16, 64, 256}) {
    reliability::RaidPredictionParams p;
    p.n_drives = n;
    p.tolerated_failures = 1;
    p.fdr = 0.0;
    const double ctmc = reliability::mttdl_raid_with_prediction(p);
    const double formula = reliability::mttdl_raid5_no_prediction(
        p.mttf_hours, p.mttr_hours, n);
    EXPECT_NEAR(ctmc / formula, 1.0, 0.05) << "n = " << n;
  }
}

}  // namespace
}  // namespace hdd
