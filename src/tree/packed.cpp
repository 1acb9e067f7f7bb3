// PackedTrees (declared in tree/tree.h): compilation of training nodes
// into the packed form, and the one descent loop every tree model runs.
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "tree/tree.h"

namespace hdd::tree {

PackedTrees::PackedTrees(Finish finish, int num_features)
    : finish_(finish), num_features_(num_features) {}

void PackedTrees::add_member(std::span<const Node> nodes,
                             std::span<const int> columns, double alpha) {
  HDD_REQUIRE(!nodes.empty(), "cannot pack an empty tree");
  HDD_REQUIRE(finish_ != Finish::kLeaf || roots_.empty(),
              "a single-tree packed form holds one member");
  constexpr auto kMaxIndex =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  HDD_REQUIRE(splits_.size() + nodes.size() <= kMaxIndex &&
                  leaves_.size() + nodes.size() <= kMaxIndex,
              "too many nodes to pack");

  // Internal nodes and leaves are numbered in node order, each into its
  // own array; `link` is the encoded child link of every training node.
  std::vector<std::int32_t> link(nodes.size());
  auto next_split = static_cast<std::int32_t>(splits_.size());
  auto next_leaf = static_cast<std::int32_t>(leaves_.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    link[i] = nodes[i].is_leaf() ? ~next_leaf++ : next_split++;
  }
  for (const Node& n : nodes) {
    if (n.is_leaf()) {
      leaves_.push_back(finish_ == Finish::kVote
                            ? alpha * (n.value < 0.0 ? -1.0 : 1.0)
                            : n.value);
      continue;
    }
    const auto f = static_cast<std::size_t>(n.feature);
    const int feature =
        columns.empty() ? n.feature : (f < columns.size() ? columns[f] : -1);
    HDD_REQUIRE(feature >= 0 && feature < num_features_,
                "packed split feature outside the input row");
    splits_.push_back({n.threshold, feature,
                       link[static_cast<std::size_t>(n.left)],
                       link[static_cast<std::size_t>(n.right)]});
  }
  roots_.push_back(link.front());
  divisor_ += finish_ == Finish::kVote ? alpha : 1.0;
}

namespace {

// The one tree-descent loop: follows split links from `link` until it
// reaches a leaf and returns that leaf's index.
inline std::int32_t descend(const auto* splits, std::int32_t link,
                            const float* x) {
  while (link >= 0) {
    const auto& s = splits[link];
    link = x[s.feature] < s.threshold ? s.left : s.right;
  }
  return ~link;
}

}  // namespace

double PackedTrees::predict(std::span<const float> x) const {
  double out = 0.0;
  predict_batch(x, {&out, 1});
  return out;
}

void PackedTrees::predict_batch(std::span<const float> xs,
                                std::span<double> out) const {
  HDD_ASSERT_MSG(!roots_.empty(), "predict on an empty packed model");
  const auto nf = static_cast<std::size_t>(num_features_);
  HDD_ASSERT(xs.size() == out.size() * nf);
  const Split* const splits = splits_.data();
  const double* const leaves = leaves_.data();
  // Row-outer: a row's features stay in L1 while every member descends.
  // Lock-step descent of several rows per member measured slower on the
  // production forest, because lanes wait for the deepest path.
  if (finish_ == Finish::kLeaf) {
    const std::int32_t root = roots_.front();
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = leaves[descend(splits, root, xs.data() + r * nf)];
    }
    return;
  }
  for (std::size_t r = 0; r < out.size(); ++r) {
    const float* const x = xs.data() + r * nf;
    double sum = 0.0;
    for (const std::int32_t root : roots_) {
      sum += leaves[descend(splits, root, x)];
    }
    out[r] = divisor_ > 0.0 ? sum / divisor_ : 0.0;
  }
}

}  // namespace hdd::tree
