#include "forest/adaboost.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace hdd::forest {

void AdaBoostConfig::validate() const {
  HDD_REQUIRE(n_rounds >= 1, "n_rounds must be >= 1");
  weak_params.validate();
}

AdaBoost AdaBoost::from_members(std::vector<Member> members) {
  HDD_REQUIRE(!members.empty(), "from_members: member list is empty");
  const int width = members.front().tree.num_features();
  for (const Member& m : members) {
    HDD_REQUIRE(m.tree.trained(), "from_members: untrained member tree");
    HDD_REQUIRE(m.tree.num_features() == width,
                "from_members: member trees disagree on feature count");
  }
  AdaBoost boost;
  boost.members_ = std::move(members);
  boost.pack();
  return boost;
}

void AdaBoost::fit(const data::DataMatrix& m, const AdaBoostConfig& config) {
  config.validate();
  HDD_REQUIRE(!m.empty(), "cannot fit AdaBoost on an empty matrix");
  members_.clear();

  // Working copy of the matrix whose weights evolve round to round.
  data::DataMatrix work(m.cols());
  work.reserve(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    work.add_row(m.row(r), m.target(r), m.weight(r));
  }

  for (int round = 0; round < config.n_rounds; ++round) {
    Member member;
    member.tree.fit(work, tree::Task::kClassification, config.weak_params);

    // Weighted error of the weak learner.
    double err = 0.0, total = 0.0;
    std::vector<int> labels(work.rows());
    for (std::size_t r = 0; r < work.rows(); ++r) {
      labels[r] = member.tree.predict_label(work.row(r));
      const bool wrong = (labels[r] < 0) != (work.target(r) < 0.0f);
      total += work.weight(r);
      if (wrong) err += work.weight(r);
    }
    if (total <= 0.0) break;
    err /= total;
    if (err >= 0.5) break;                      // weak learner no better than chance
    err = std::max(err, 1e-10);
    member.alpha = 0.5 * std::log((1.0 - err) / err);

    // Reweight: boost the misclassified.
    double new_total = 0.0;
    for (std::size_t r = 0; r < work.rows(); ++r) {
      const bool wrong = (labels[r] < 0) != (work.target(r) < 0.0f);
      const double w = work.weight(r) *
                       std::exp(wrong ? member.alpha : -member.alpha);
      work.set_weight(r, static_cast<float>(w));
      new_total += w;
    }
    // Normalize to keep weights in a sane float range.
    if (new_total > 0.0) {
      const double scale = total / new_total;
      for (std::size_t r = 0; r < work.rows(); ++r) {
        work.set_weight(r, static_cast<float>(work.weight(r) * scale));
      }
    }

    const bool perfect = err <= 1e-9;
    members_.push_back(std::move(member));
    if (perfect) break;
  }
  HDD_REQUIRE(!members_.empty(),
              "AdaBoost found no weak learner better than chance");
  pack();
}

double AdaBoost::predict(std::span<const float> x) const {
  HDD_ASSERT_MSG(trained(), "predict on an untrained AdaBoost");
  return packed_.predict(x);
}

void AdaBoost::predict_batch(std::span<const float> xs,
                             std::span<double> out) const {
  HDD_ASSERT_MSG(trained(), "predict_batch on an untrained AdaBoost");
  packed_.predict_batch(xs, out);
}

void AdaBoost::pack() {
  packed_ = tree::PackedTrees(tree::PackedTrees::Finish::kVote,
                              members_.front().tree.num_features());
  for (const Member& member : members_) {
    packed_.add_member(member.tree.nodes(), {}, member.alpha);
  }
}

void AdaBoost::predict_batch(const data::DataMatrix& m,
                             std::span<double> out) const {
  HDD_ASSERT(m.rows() == out.size());
  HDD_ASSERT(!members_.empty() &&
             m.cols() == members_.front().tree.num_features());
  predict_batch(m.features(), out);
}

}  // namespace hdd::forest
