// CART — classification and regression trees, implemented exactly as the
// paper's Algorithm 1 (classification, information-gain splits) and
// Algorithm 2 (regression, within-node sum-of-squares splits), with
// Minsplit / Minbucket stopping and Complexity-Parameter pruning.
//
// Conventions:
//  * binary targets use +1 (good) / -1 (failed); regression targets are the
//    health degrees of Eq. 5/6 (good = +1, failed in [-1, 0));
//  * predict() returns the leaf value: for classification the *signed
//    weighted margin* p_good - p_failed in [-1, 1] (so sign() is the label
//    under the loss-adjusted weights), for regression the weighted mean
//    target. predict_label() thresholds at 0;
//  * sample weights carry both the prior adjustment and the loss matrix
//    (data::build_training_matrix), so weighted-majority leaf labels are
//    exactly the paper's minimum-expected-loss labels.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "data/matrix.h"
#include "smart/features.h"

namespace hdd::tree {

enum class Task { kClassification, kRegression };

// Hard ceilings a persisted tree file may declare before load() rejects it
// with hdd::ParseError — checked *before* any reservation, so a hostile
// header cannot drive a giant allocation. Both are far above anything
// training can produce (TreeParams::max_nodes defaults to 32768).
inline constexpr std::size_t kMaxLoadNodes = 1u << 20;
inline constexpr int kMaxLoadFeatures = 4096;

struct TreeParams {
  // Minimum samples (by count) a node needs before a split is attempted.
  int min_split = 20;
  // Minimum samples (by count) in any leaf.
  int min_bucket = 7;
  // Complexity parameter: an internal node whose split gain is below
  // cp * root_scale is pruned back (Algorithm 1 line 19 / Algorithm 2
  // line 20). For classification the gain is information gain in bits and
  // root_scale = 1; for regression the gain is the within-node
  // sum-of-squares reduction and root_scale is the root's sum of squares,
  // making cp scale-free in both tasks.
  double cp = 0.001;
  // Safety rails beyond the paper (the paper relies on min_split/cp only).
  int max_depth = 30;
  int max_nodes = 32768;

  void validate() const;
};

struct Node {
  // Internal node: feature/threshold with children; leaf: children = -1.
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t feature = -1;
  float threshold = 0.0f;  // goes left when x[feature] < threshold

  double value = 0.0;       // leaf output (margin or mean target)
  double weight = 0.0;      // total sample weight at the node
  std::int64_t count = 0;   // raw sample count at the node
  double gain = 0.0;        // split gain (0 for leaves)

  bool is_leaf() const { return left < 0; }
};

// The packed inference form every tree model predicts through: a single
// tree, a random forest and an AdaBoost ensemble all compile their members'
// training Nodes into one of these and run its one descent loop.
//
// Internal nodes are 16 bytes (threshold, feature, two child links) with
// the feature already mapped through the member's subspace into the full
// input row, so no per-call feature copy is needed. A child link < 0 is
// ~leaf into one double array holding each member's *contribution*: its
// leaf value (tree, forest) or alpha * sign(leaf value) (AdaBoost). The
// descent compares `x[feature] < threshold` exactly as training splits
// rows, so a NaN goes right, and each row sums its members in member
// order, so outputs are bit-identical to the per-member scalar
// definitions. Derived from the training nodes; never serialized.
class PackedTrees {
 public:
  // How a row's member contributions become its output.
  enum class Finish : std::uint8_t {
    kLeaf,  // one member; its leaf value is the output (-0.0 stays -0.0)
    kMean,  // leaf values summed from 0.0, divided by the member count
    kVote,  // alpha * sign(leaf) summed from 0.0, divided by the sum of
            // alphas (in member order); 0 when that sum is <= 0
  };

  PackedTrees() = default;
  PackedTrees(Finish finish, int num_features);

  // Appends one member compiled from training nodes in the shape
  // DecisionTree::from_nodes accepts (children after their parent).
  // `columns` maps the member's feature index to the input row's (empty =
  // identity); `alpha` is the member's vote weight under kVote. Throws
  // ConfigError on a feature outside the row or a second kLeaf member.
  void add_member(std::span<const Node> nodes,
                  std::span<const int> columns = {}, double alpha = 1.0);

  double predict(std::span<const float> x) const;
  // Row-major rows: `xs.size()` must equal `out.size() * num_features`.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;

 private:
  struct Split {
    float threshold = 0.0f;
    std::int32_t feature = 0;
    std::int32_t left = 0;   // >= 0: split index; < 0: ~leaf index
    std::int32_t right = 0;
  };
  static_assert(sizeof(Split) == 16);

  std::vector<Split> splits_;
  std::vector<double> leaves_;
  std::vector<std::int32_t> roots_;  // per member, in the same encoding
  Finish finish_ = Finish::kLeaf;
  int num_features_ = 0;
  double divisor_ = 0.0;  // member count (kMean) or sum of alphas (kVote)
};

class DecisionTree {
 public:
  DecisionTree() = default;

  // Grows and prunes a tree on the weighted matrix. Throws ConfigError on
  // invalid parameters or an empty matrix.
  void fit(const data::DataMatrix& m, Task task, const TreeParams& params);

  bool trained() const { return !nodes_.empty(); }
  Task task() const { return task_; }
  int num_features() const { return num_features_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  int depth() const;

  // Leaf value for one feature row (see header comment for semantics).
  double predict(std::span<const float> x) const;

  // Batch prediction over row-major feature rows (`xs.size()` must equal
  // `out.size() * num_features()`). Runs the packed form, as predict()
  // does, so outputs are bit-identical to calling predict() per row.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;
  void predict_batch(const data::DataMatrix& m, std::span<double> out) const;

  // +1 (good) / -1 (failed).
  int predict_label(std::span<const float> x) const {
    return predict(x) < 0.0 ? -1 : 1;
  }

  // Total split gain attributed to each feature, normalized to sum to 1
  // (all-zero if the tree is a stump).
  std::vector<double> feature_importance() const;

  // Figure-1-style rule dump. Feature names come from `features` when
  // given, else "f<i>".
  std::string to_text(const smart::FeatureSet* features = nullptr) const;

  // Flat node access (serialization, tests). These training nodes are the
  // source of truth; prediction runs their packed form.
  const std::vector<Node>& nodes() const { return nodes_; }

  // Rebuilds a tree from serialized nodes (validated).
  static DecisionTree from_nodes(std::vector<Node> nodes, Task task,
                                 int num_features);

  // Line-oriented text persistence ("hddpred-tree v1"): header lines
  // (task/features/nodes) followed by one line per node in preorder.
  // Implemented in tree_io.cpp; load() throws DataError on bad input.
  void save(std::ostream& os) const;
  static DecisionTree load(std::istream& is);

 private:
  struct Builder;

  // Drops nodes orphaned by pruning and renumbers children.
  void compact();
  // Compiles nodes_ into packed_; run once trained or rebuilt.
  void pack();

  std::vector<Node> nodes_;
  PackedTrees packed_;
  Task task_ = Task::kClassification;
  int num_features_ = 0;
};

}  // namespace hdd::tree
