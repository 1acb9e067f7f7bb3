// Ensemble extensions — the paper's future work ("we will try other
// statistical and machine learning methods, such as random forest").
//
// RandomForest: bootstrap-aggregated CARTs with per-tree random feature
// subspaces; prediction is the mean of tree outputs (soft vote), which
// keeps the [-1, 1] margin convention of the rest of the library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "tree/tree.h"

namespace hdd::forest {

// Hard ceiling on the member count a persisted forest file may declare;
// load() rejects larger headers with hdd::ParseError before reserving
// anything (each member also carries a full tree, itself bounded by
// tree::kMaxLoadNodes).
inline constexpr std::size_t kMaxLoadMembers = 4096;

struct ForestConfig {
  int n_trees = 40;
  // Fraction of features each tree sees (random subspace per tree).
  double feature_fraction = 0.6;
  // Bootstrap sample size as a fraction of the training rows.
  double sample_fraction = 1.0;
  tree::TreeParams tree_params;
  std::uint64_t seed = 4096;

  void validate() const;
};

class RandomForest {
 public:
  RandomForest() = default;

  void fit(const data::DataMatrix& m, tree::Task task,
           const ForestConfig& config);

  bool trained() const { return !trees_.empty(); }
  std::size_t tree_count() const { return trees_.size(); }
  int num_features() const { return num_features_; }

  // Member access for the static verifier (analysis/) and tests: the i-th
  // tree operates on the subspace columns returned by member_features
  // (member column -> original column).
  const tree::DecisionTree& member_tree(std::size_t i) const {
    return trees_[i].tree;
  }
  std::span<const int> member_features(std::size_t i) const {
    return trees_[i].features;
  }

  // Mean tree output; negative = failed.
  double predict(std::span<const float> x) const;
  int predict_label(std::span<const float> x) const {
    return predict(x) < 0.0 ? -1 : 1;
  }

  // Batch prediction over row-major rows (`xs.size()` must equal
  // `out.size() * num_features()`). predict() and predict_batch() run the
  // same packed form (tree::PackedTrees, subspaces folded in), so outputs
  // are bit-identical.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;
  void predict_batch(const data::DataMatrix& m, std::span<double> out) const;

  // Importance averaged over trees (mapped back to the full feature space).
  std::vector<double> feature_importance() const;

  // Line-oriented text persistence ("hddpred-forest v1"); each member tree
  // is embedded in the hddpred-tree format.
  void save(std::ostream& os) const;
  static RandomForest load(std::istream& is);  // throws DataError

 private:
  struct Member {
    tree::DecisionTree tree;
    std::vector<int> features;  // subspace: member col -> original col
  };
  // Compiles the members into packed_; run once trained or loaded.
  void pack();

  std::vector<Member> trees_;
  tree::PackedTrees packed_;
  int num_features_ = 0;
};

}  // namespace hdd::forest
