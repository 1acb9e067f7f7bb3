// The production-configuration guard: the benchmark refuses to measure
// anything but the configuration the daemon ships with — stat13 features,
// the trained CT or the 40-tree forest, and the journal on. A constant stub
// scorer on a 2-feature layout measures a program nobody runs.
#pragma once

#include <stdexcept>
#include <string>

#include "core/scorer.h"

namespace perfbench {

enum class ModelKind { kCt, kForest40 };

inline const char* model_kind_name(ModelKind k) {
  return k == ModelKind::kCt ? "ct" : "forest-40";
}

// Throws std::runtime_error naming the first way `live` + `journal_on`
// differ from the production configuration. A hot-swappable scorer is
// judged by the model it currently serves.
inline void require_production_config(const hdd::core::SampleScorer& live,
                                      ModelKind kind, bool journal_on) {
  const auto pinned = live.pin();
  const hdd::core::SampleScorer& scorer = pinned ? *pinned : live;
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error("not the production configuration (" +
                             std::string(model_kind_name(kind)) +
                             "): " + why);
  };
  if (scorer.num_features() != 13) {
    fail("scorer has " + std::to_string(scorer.num_features()) +
         " features, stat13 needs 13");
  }
  const std::string summary = scorer.summary();
  if (kind == ModelKind::kCt) {
    if (scorer.tree() == nullptr || summary.rfind("tree:", 0) != 0) {
      fail("model is \"" + summary + "\", not a trained classification tree");
    }
  } else if (summary != "forest: 40 trees") {
    fail("model is \"" + summary + "\", not the 40-tree forest");
  }
  if (!journal_on) fail("the journal is off");
}

}  // namespace perfbench
