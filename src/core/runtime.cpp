#include "core/runtime.h"

#include <utility>

#include "common/error.h"
#include "obs/trace.h"
#include "smart/features.h"

namespace hdd::core {

FleetRuntime::FleetRuntime(FleetRuntimeConfig config) {
  HDD_REQUIRE(config.model_path.empty() != (config.scorer == nullptr),
              "exactly one of model_path and scorer must be set");
  if (!config.model_path.empty()) {
    owned_scorer_ =
        make_model_scorer(load_model_file(config.model_path, config.load));
    scorer_ = owned_scorer_.get();
  } else {
    scorer_ = config.scorer;
  }

  if (config.features.size() == 0) config.features = smart::stat13_features();
  HDD_REQUIRE(scorer_->num_features() == config.features.size(),
              "model feature count does not match the feature layout");

  if (!config.store_dir.empty()) {
    store_ = std::make_unique<store::TelemetryStore>(config.store_dir,
                                                     config.store);
  }

  if (store_ != nullptr && store_->latest_generation().has_value()) {
    // A promoted generation in the journal supersedes the configured model
    // even when this runtime is not itself hot-swappable — this is what
    // makes any restart after a promotion resume to the promoted model,
    // not the stale seed.
    const store::GenerationRecord& rec = *store_->latest_generation();
    owned_scorer_ = load_generation_model(rec.model_text);
    HDD_REQUIRE(owned_scorer_->num_features() == config.features.size(),
                "journaled generation model does not match the feature "
                "layout");
    scorer_ = owned_scorer_.get();
    generation_ = rec.generation;
  }

  if (config.hot_swappable) {
    std::shared_ptr<const SampleScorer> base =
        owned_scorer_ != nullptr
            ? std::shared_ptr<const SampleScorer>(std::move(owned_scorer_))
            : unowned_scorer(scorer_);
    swappable_ = std::make_unique<SwappableScorer>(std::move(base),
                                                   generation_);
    scorer_ = swappable_.get();
  }

  FleetScorerConfig fc;
  fc.features = std::move(config.features);
  fc.vote = config.vote;
  fc.block_rows = config.block_rows;
  fc.quarantine = config.quarantine;
  fc.pool = config.pool;
  fc.metrics = config.metrics;
  fleet_ = std::make_unique<FleetScorer>(*scorer_, std::move(fc));
  if (store_ != nullptr) fleet_->attach_journal(store_.get());
}

store::TelemetryStore& FleetRuntime::store() {
  HDD_REQUIRE(store_ != nullptr, "runtime was built without a store");
  return *store_;
}

const store::TelemetryStore& FleetRuntime::store() const {
  HDD_REQUIRE(store_ != nullptr, "runtime was built without a store");
  return *store_;
}

FleetScorer::ResumeResult FleetRuntime::resume(bool drop_partial_tail) {
  const obs::ScopedSpan span("runtime.resume");
  return fleet_->resume_from(store(), drop_partial_tail);
}

void FleetRuntime::seal() {
  if (store_ != nullptr) store_->flush();
}

}  // namespace hdd::core
