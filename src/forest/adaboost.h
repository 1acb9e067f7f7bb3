// AdaBoost.M1 over shallow CARTs — the boosting approach the paper's
// predecessor [11] evaluated (and found costly for little gain); included
// so the comparison can be reproduced as an ablation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tree/tree.h"

namespace hdd::forest {

struct AdaBoostConfig {
  int n_rounds = 30;
  tree::TreeParams weak_params;  // depth-limited weak learner
  std::uint64_t seed = 777;

  AdaBoostConfig() { weak_params.max_depth = 3; }
  void validate() const;
};

class AdaBoost {
 public:
  struct Member {
    tree::DecisionTree tree;
    double alpha = 0.0;
  };

  AdaBoost() = default;

  // Binary classification only (targets +1/-1). Initial sample weights are
  // taken from the matrix, so prior/loss adjustments carry through.
  void fit(const data::DataMatrix& m, const AdaBoostConfig& config);

  // Assembles an ensemble from already-trained weak learners (tests, model
  // surgery). Validates shapes only (trained trees, equal widths) — vote
  // soundness, e.g. a member whose alpha dominates the rest, is
  // analysis::verify_adaboost's job. Throws ConfigError on shape errors.
  static AdaBoost from_members(std::vector<Member> members);

  bool trained() const { return !members_.empty(); }
  std::size_t round_count() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  // Weighted-vote margin normalized to [-1, 1]; negative = failed.
  double predict(std::span<const float> x) const;
  int predict_label(std::span<const float> x) const {
    return predict(x) < 0.0 ? -1 : 1;
  }

  // Batch prediction over row-major rows (`xs.size()` must equal
  // `out.size() * num_features` of the weak learners). predict() and
  // predict_batch() run the same packed form (tree::PackedTrees, each leaf
  // holding alpha * its member's label), so outputs are bit-identical.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;
  void predict_batch(const data::DataMatrix& m, std::span<double> out) const;

 private:
  // Compiles the members into packed_; run once trained or assembled.
  void pack();

  std::vector<Member> members_;
  tree::PackedTrees packed_;
};

}  // namespace hdd::forest
