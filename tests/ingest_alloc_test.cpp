// Steady-state ingest makes no heap allocation (DESIGN.md: "no
// steady-state allocation"). This binary replaces the global operator new
// to count calls; once a drive's history window, the scorer's scratch and
// the ingest buffer have grown to their working size, FleetScorer::
// ingest_drive must run on them alone. Journal, metrics registry and
// tracer are off, so the count is the scoring pipeline's own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "core/scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smart/features.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hdd::core {
namespace {

// A linear model over every feature: allocation-free by construction, so
// these cases measure the pipeline around the model.
class LinearScorer final : public SampleScorer {
 public:
  explicit LinearScorer(int width) : width_(width) {}
  double predict(std::span<const float> x) const override {
    double s = 0.0;
    for (const float v : x) s += 1e-3 * static_cast<double>(v);
    return s - 0.5;
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    const auto w = static_cast<std::size_t>(width_);
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = predict(xs.subspan(r * w, w));
    }
  }
  int num_features() const override { return width_; }
  std::string summary() const override { return "linear"; }

 private:
  int width_;
};

smart::Sample sample_at(std::int64_t h) {
  smart::Sample s;
  s.hour = h;
  s.set(smart::Attr::kRawReadErrorRate, static_cast<float>(h % 17));
  s.set(smart::Attr::kTemperatureCelsius, 30.0f + static_cast<float>(h % 5));
  s.set(smart::Attr::kReallocatedSectorsRaw, static_cast<float>(h / 50));
  return s;
}

// A small model trained on random stat13-wide rows, for the cases that
// score through a real tree or forest.
data::DataMatrix stat13_training_rows() {
  Rng rng(5);
  data::DataMatrix m(smart::stat13_features().size());
  std::vector<float> row(static_cast<std::size_t>(m.cols()));
  for (int i = 0; i < 300; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(0.0, 40.0));
    m.add_row(row, row[0] + row[4] < 40.0f ? -1.0f : 1.0f, 1.0f);
  }
  return m;
}

std::unique_ptr<SampleScorer> trained(ModelType model) {
  PredictorConfig cfg = preset(model == ModelType::kRandomForest ? "forest"
                                                                 : "ct");
  cfg.forest.n_trees = 5;
  return fit_scorer(cfg, stat13_training_rows());
}

// Ingests `calls` batches of `per_call` hourly samples into one drive and
// returns how many heap allocations the last `measured` calls made.
std::uint64_t allocs_in_steady_state(const SampleScorer& scorer,
                                     std::size_t per_call, int calls,
                                     int measured) {
  obs::Tracer::global().set_enabled(false);
  obs::Registry reg(/*enabled=*/false);
  const smart::FeatureSet features = smart::stat13_features();
  FleetScorerConfig cfg;
  cfg.features = features;
  cfg.metrics = &reg;
  FleetScorer fleet(scorer, cfg);
  fleet.add_drive("drive-0");
  std::vector<smart::Sample> batch(per_call);
  std::int64_t hour = 0;
  std::size_t accepted = 0;
  g_allocs.store(0);
  for (int c = 0; c < calls; ++c) {
    for (auto& s : batch) s = sample_at(hour++);
    g_counting.store(c >= calls - measured);
    accepted += fleet.ingest_drive(0, batch).accepted;
    g_counting.store(false);
  }
  EXPECT_EQ(accepted, per_call * static_cast<std::size_t>(calls));
  return g_allocs.load();
}

const LinearScorer kLinear(smart::stat13_features().size());

TEST(IngestAlloc, HourlySamplesAllocateNothingAfterWarmUp) {
  // 1000 warm-up hours fill the bounded history window; then 100 calls.
  EXPECT_EQ(allocs_in_steady_state(kLinear, 1, 1100, 100), 0u);
}

TEST(IngestAlloc, WeeklyBatchesAllocateNothingAfterWarmUp) {
  EXPECT_EQ(allocs_in_steady_state(kLinear, 168, 110, 100), 0u);
}

TEST(IngestAlloc, TrainedTreeAllocatesNothingAfterWarmUp) {
  const auto ct = trained(ModelType::kClassificationTree);
  ASSERT_NE(ct->tree(), nullptr);
  EXPECT_EQ(allocs_in_steady_state(*ct, 1, 1100, 100), 0u);
  EXPECT_EQ(allocs_in_steady_state(*ct, 168, 110, 100), 0u);
}

TEST(IngestAlloc, TrainedForestAllocatesNothingAfterWarmUp) {
  const auto forest = trained(ModelType::kRandomForest);
  ASSERT_EQ(forest->summary(), "forest: 5 trees");
  EXPECT_EQ(allocs_in_steady_state(*forest, 1, 1100, 100), 0u);
  EXPECT_EQ(allocs_in_steady_state(*forest, 168, 110, 100), 0u);
}

}  // namespace
}  // namespace hdd::core
