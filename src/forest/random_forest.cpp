#include "forest/random_forest.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace hdd::forest {

void ForestConfig::validate() const {
  HDD_REQUIRE(n_trees >= 1, "n_trees must be >= 1");
  HDD_REQUIRE(feature_fraction > 0.0 && feature_fraction <= 1.0,
              "feature_fraction must be in (0,1]");
  HDD_REQUIRE(sample_fraction > 0.0 && sample_fraction <= 1.0,
              "sample_fraction must be in (0,1]");
  tree_params.validate();
}

void RandomForest::fit(const data::DataMatrix& m, tree::Task task,
                       const ForestConfig& config) {
  config.validate();
  HDD_REQUIRE(!m.empty(), "cannot fit a forest on an empty matrix");
  num_features_ = m.cols();
  trees_.assign(static_cast<std::size_t>(config.n_trees), {});

  const int n_sub_features = std::max(
      1, static_cast<int>(std::round(config.feature_fraction * m.cols())));
  const auto n_rows = static_cast<std::size_t>(std::max<double>(
      1.0, std::round(config.sample_fraction *
                      static_cast<double>(m.rows()))));

  ThreadPool::global().parallel_for(
      0, trees_.size(), [&](std::size_t t) {
        Rng rng(hash_combine(config.seed, t));

        // Random feature subspace.
        std::vector<int> all_features(static_cast<std::size_t>(m.cols()));
        for (int f = 0; f < m.cols(); ++f)
          all_features[static_cast<std::size_t>(f)] = f;
        const auto perm = rng.permutation(all_features.size());
        std::vector<int> chosen;
        chosen.reserve(static_cast<std::size_t>(n_sub_features));
        for (int k = 0; k < n_sub_features; ++k)
          chosen.push_back(all_features[perm[static_cast<std::size_t>(k)]]);
        std::sort(chosen.begin(), chosen.end());

        // Bootstrap rows into a projected matrix.
        data::DataMatrix boot(n_sub_features);
        boot.reserve(n_rows);
        std::vector<float> row(static_cast<std::size_t>(n_sub_features));
        for (std::size_t i = 0; i < n_rows; ++i) {
          const std::size_t r = rng.uniform_int(m.rows());
          const auto src = m.row(r);
          for (std::size_t f = 0; f < chosen.size(); ++f) {
            row[f] = src[static_cast<std::size_t>(chosen[f])];
          }
          boot.add_row(row, m.target(r), m.weight(r));
        }

        trees_[t].features = std::move(chosen);
        trees_[t].tree.fit(boot, task, config.tree_params);
      });
  pack();
}

double RandomForest::predict(std::span<const float> x) const {
  HDD_ASSERT_MSG(trained(), "predict on an untrained forest");
  return packed_.predict(x);
}

void RandomForest::predict_batch(std::span<const float> xs,
                                 std::span<double> out) const {
  HDD_ASSERT_MSG(trained(), "predict_batch on an untrained forest");
  packed_.predict_batch(xs, out);
}

void RandomForest::pack() {
  packed_ = tree::PackedTrees(tree::PackedTrees::Finish::kMean, num_features_);
  for (const Member& member : trees_) {
    packed_.add_member(member.tree.nodes(), member.features);
  }
}

void RandomForest::predict_batch(const data::DataMatrix& m,
                                 std::span<double> out) const {
  HDD_ASSERT(m.rows() == out.size());
  HDD_ASSERT(m.cols() == num_features_);
  predict_batch(m.features(), out);
}

void RandomForest::save(std::ostream& os) const {
  HDD_REQUIRE(trained(), "cannot save an untrained forest");
  os << "hddpred-forest v1\n";
  os << "features " << num_features_ << '\n';
  os << "trees " << trees_.size() << '\n';
  for (const Member& member : trees_) {
    os << "subspace";
    for (int f : member.features) os << ' ' << f;
    os << '\n';
    member.tree.save(os);
  }
}

RandomForest RandomForest::load(std::istream& is) {
  std::string line, word;
  if (!std::getline(is, line) || line != "hddpred-forest v1") {
    throw DataError("not a hddpred-forest v1 file");
  }
  RandomForest forest;
  std::size_t count = 0;
  {
    if (!std::getline(is, line)) throw DataError("forest file truncated");
    std::istringstream ls(line);
    ls >> word >> forest.num_features_;
    if (ls.fail() || word != "features" || forest.num_features_ <= 0) {
      throw DataError("bad features line");
    }
    if (forest.num_features_ > tree::kMaxLoadFeatures) {
      throw ParseError("forest features",
                       static_cast<std::uint64_t>(forest.num_features_),
                       tree::kMaxLoadFeatures);
    }
  }
  {
    if (!std::getline(is, line)) throw DataError("forest file truncated");
    std::istringstream ls(line);
    ls >> word >> count;
    if (ls.fail() || word != "trees" || count == 0) {
      throw DataError("bad trees line");
    }
    if (count > kMaxLoadMembers) {
      throw ParseError("forest trees", count, kMaxLoadMembers);
    }
  }
  forest.trees_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    if (!std::getline(is, line)) throw DataError("forest file truncated");
    std::istringstream ls(line);
    ls >> word;
    if (word != "subspace") throw DataError("bad subspace line");
    Member member;
    int f;
    while (ls >> f) {
      if (f < 0 || f >= forest.num_features_) {
        throw DataError("subspace feature out of range");
      }
      member.features.push_back(f);
    }
    if (member.features.empty()) throw DataError("empty subspace");
    member.tree = tree::DecisionTree::load(is);
    if (member.tree.num_features() !=
        static_cast<int>(member.features.size())) {
      throw DataError("tree width does not match its subspace");
    }
    forest.trees_.push_back(std::move(member));
  }
  forest.pack();
  return forest;
}

std::vector<double> RandomForest::feature_importance() const {
  std::vector<double> imp(static_cast<std::size_t>(num_features_), 0.0);
  for (const Member& member : trees_) {
    const auto sub_imp = member.tree.feature_importance();
    for (std::size_t f = 0; f < member.features.size(); ++f) {
      imp[static_cast<std::size_t>(member.features[f])] += sub_imp[f];
    }
  }
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

}  // namespace hdd::forest
