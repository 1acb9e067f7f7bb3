// Micro-benchmarks (google-benchmark): throughput of the hot paths — trace
// generation, feature extraction, CART fit/predict, MLP fit/predict,
// batch-vs-scalar prediction, fleet scoring, the telemetry-store append and
// recovery paths, the rank-sum test, and the Markov solver. These bound how
// large a fleet one monitoring node can score (and journal) in real time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "ann/mlp.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "data/matrix.h"
#include "eval/detection.h"
#include "reliability/raid.h"
#include "sim/generator.h"
#include "smart/features.h"
#include "stats/nonparametric.h"
#include "store/telemetry_store.h"
#include "tree/tree.h"

namespace {

using namespace hdd;

// Shared synthetic matrix: `rows` samples of 13 features, linearly
// separable with noise.
data::DataMatrix make_training_matrix(std::size_t rows) {
  Rng rng(7);
  data::DataMatrix m(13);
  m.reserve(rows);
  std::vector<float> row(13);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(0, 100));
    const bool failed = row[0] + row[1] > 110.0f;
    m.add_row(row, failed ? -1.0f : 1.0f, 1.0f);
  }
  return m;
}

void BM_GeneratorSampleAt(benchmark::State& state) {
  const sim::TraceGenerator gen(sim::family_w_profile(), 42, 0);
  const auto latent = gen.make_latent(3, true, 8 * 168);
  std::int64_t hour = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.sample_at(latent, hour));
    hour = (hour + 1) % 1344;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneratorSampleAt);

void BM_FeatureExtraction(benchmark::State& state) {
  const sim::TraceGenerator gen(sim::family_w_profile(), 42, 0);
  const auto latent = gen.make_latent(3, false, 8 * 168);
  const auto record = gen.materialize(latent, 0, 1343, 1);
  const auto fs = smart::stat13_features();
  std::size_t i = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(smart::extract_features(record, i, fs));
    i = 100 + (i + 1) % (record.samples.size() - 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureExtraction);

void BM_TreeFit(benchmark::State& state) {
  const auto m = make_training_matrix(
      static_cast<std::size_t>(state.range(0)));
  tree::TreeParams params;
  for (auto _ : state) {
    tree::DecisionTree t;
    t.fit(m, tree::Task::kClassification, params);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeFit)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TreePredict(benchmark::State& state) {
  const auto m = make_training_matrix(20000);
  tree::DecisionTree t;
  t.fit(m, tree::Task::kClassification, tree::TreeParams{});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.predict(m.row(i)));
    i = (i + 1) % m.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreePredict);

void BM_MlpFit(benchmark::State& state) {
  const auto m = make_training_matrix(
      static_cast<std::size_t>(state.range(0)));
  ann::MlpConfig cfg;
  cfg.epochs = 10;
  for (auto _ : state) {
    ann::MlpModel model;
    model.fit(m, cfg);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * cfg.epochs);
}
BENCHMARK(BM_MlpFit)->Arg(1000)->Arg(5000);

void BM_MlpPredict(benchmark::State& state) {
  const auto m = make_training_matrix(5000);
  ann::MlpConfig cfg;
  cfg.epochs = 5;
  ann::MlpModel model;
  model.fit(m, cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(m.row(i)));
    i = (i + 1) % m.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpPredict);

// --- Batch vs scalar prediction ---------------------------------------------

void BM_TreePredictBatch(benchmark::State& state) {
  const auto m = make_training_matrix(20000);
  tree::DecisionTree t;
  t.fit(m, tree::Task::kClassification, tree::TreeParams{});
  std::vector<double> out(m.rows());
  for (auto _ : state) {
    t.predict_batch(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.rows()));
}
BENCHMARK(BM_TreePredictBatch);

void BM_MlpPredictBatch(benchmark::State& state) {
  const auto m = make_training_matrix(5000);
  ann::MlpConfig cfg;
  cfg.epochs = 5;
  ann::MlpModel model;
  model.fit(m, cfg);
  std::vector<double> out(m.rows());
  for (auto _ : state) {
    model.predict_batch(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.rows()));
}
BENCHMARK(BM_MlpPredictBatch);

// --- Fleet scoring ----------------------------------------------------------

// Bench-local scorer over a trained CART, so the fleet benchmarks measure
// the engine rather than FailurePredictor training.
class BenchTreeScorer final : public core::SampleScorer {
 public:
  explicit BenchTreeScorer(std::size_t train_rows) {
    tree_.fit(make_training_matrix(train_rows), tree::Task::kClassification,
              tree::TreeParams{});
  }
  double predict(std::span<const float> x) const override {
    return tree_.predict(x);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    tree_.predict_batch(xs, out);
  }
  int num_features() const override { return tree_.num_features(); }
  std::string summary() const override { return "bench tree"; }

 private:
  tree::DecisionTree tree_;
};

// A voting config that never alarms (outputs lie in [-1, 1]), so the fleet
// benchmarks measure steady-state scoring, not alarm early-exit.
eval::VoteConfig never_alarm_vote() {
  eval::VoteConfig vote;
  vote.voters = 11;
  vote.average_mode = true;
  vote.threshold = -2.0;
  return vote;
}

// Baseline: what fleet scoring costs through the scalar, one-row-at-a-time
// API — a std::function call plus per-drive state push per drive per
// interval — single-threaded.
void BM_FleetIntervalScalar(benchmark::State& state) {
  const auto n_drives = static_cast<std::size_t>(state.range(0));
  const BenchTreeScorer scorer(20000);
  const auto snapshot = make_training_matrix(n_drives);
  const eval::SampleModel model = [&scorer](std::span<const float> x) {
    return scorer.predict(x);
  };
  std::vector<core::DriveVoteState> states(
      n_drives, core::DriveVoteState(never_alarm_vote()));
  std::int64_t hour = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n_drives; ++i) {
      states[i].push(hour, model(snapshot.row(i)));
    }
    ++hour;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_drives));
}
BENCHMARK(BM_FleetIntervalScalar)->Arg(10000)->Unit(benchmark::kMicrosecond);

// The batched engine on the same workload: FleetScorer::observe_interval
// (blocked predict_batch spread over the thread pool).
void BM_FleetIntervalBatched(benchmark::State& state) {
  const auto n_drives = static_cast<std::size_t>(state.range(0));
  const BenchTreeScorer scorer(20000);
  const auto snapshot = make_training_matrix(n_drives);
  core::FleetScorerConfig cfg;
  cfg.features = smart::stat13_features();
  cfg.vote = never_alarm_vote();
  core::FleetScorer fleet(scorer, cfg);
  for (std::size_t i = 0; i < n_drives; ++i) {
    fleet.add_drive(std::to_string(i));
  }
  std::int64_t hour = 0;
  for (auto _ : state) {
    fleet.observe_interval(snapshot, hour);
    ++hour;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_drives));
}
BENCHMARK(BM_FleetIntervalBatched)->Arg(10000)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// End-to-end record replay (feature extraction + scoring + voting) through
// the scalar eval path vs the batched engine.
data::DriveDataset make_bench_fleet(std::size_t n_drives) {
  const sim::TraceGenerator gen(sim::family_w_profile(), 42, 0);
  data::DriveDataset ds;
  for (std::size_t i = 0; i < n_drives; ++i) {
    const auto latent =
        gen.make_latent(static_cast<std::int64_t>(i), false, 168);
    auto record = gen.materialize(latent, 0, 167, 1);
    record.serial = "bench-" + std::to_string(i);
    ds.drives.push_back(std::move(record));
  }
  return ds;
}

void BM_FleetReplayScalar(benchmark::State& state) {
  const auto n_drives = static_cast<std::size_t>(state.range(0));
  const BenchTreeScorer scorer(20000);
  const auto ds = make_bench_fleet(n_drives);
  const auto fs = smart::stat13_features();
  const auto vote = never_alarm_vote();
  const eval::SampleModel model = [&scorer](std::span<const float> x) {
    return scorer.predict(x);
  };
  for (auto _ : state) {
    std::size_t alarms = 0;
    for (const auto& d : ds.drives) {
      const auto scores = eval::score_record(d, 0, fs, model);
      alarms += eval::vote_drive(scores, vote).alarmed ? 1 : 0;
    }
    benchmark::DoNotOptimize(alarms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_drives));
}
BENCHMARK(BM_FleetReplayScalar)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_FleetReplayBatched(benchmark::State& state) {
  const auto n_drives = static_cast<std::size_t>(state.range(0));
  const BenchTreeScorer scorer(20000);
  const auto ds = make_bench_fleet(n_drives);
  core::FleetScorerConfig cfg;
  cfg.features = smart::stat13_features();
  cfg.vote = never_alarm_vote();
  core::FleetScorer fleet(scorer, cfg);
  for (auto _ : state) {
    const auto outcomes = fleet.replay(ds);
    benchmark::DoNotOptimize(outcomes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_drives));
}
BENCHMARK(BM_FleetReplayBatched)->Arg(500)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Telemetry store -------------------------------------------------------

smart::Sample bench_sample(std::int64_t hour) {
  smart::Sample s;
  s.hour = hour;
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    s.attrs[a] = static_cast<float>(a) + 0.5f * static_cast<float>(hour % 97);
  }
  return s;
}

// Sustained append throughput (records/s) for a 64-drive fleet, including
// the frame/CRC encoding and buffered stdio writes.
void BM_StoreAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "hdd_bench_store_append";
  const std::size_t n_drives = 64;
  const auto samples_per_iter = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    store::TelemetryStore store(dir.string());
    std::vector<std::uint32_t> ids;
    for (std::size_t d = 0; d < n_drives; ++d) {
      ids.push_back(store.register_drive("bench-" + std::to_string(d)));
    }
    state.ResumeTiming();
    std::int64_t hour = 0;
    for (std::size_t k = 0; k < samples_per_iter; k += n_drives, ++hour) {
      const auto s = bench_sample(hour);
      for (const auto id : ids) store.append(id, s);
    }
    store.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples_per_iter));
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreAppend)->Arg(100000)->Unit(benchmark::kMillisecond);

// Recovery cost on open: the full index-rebuilding scan of a log holding
// range(0) samples (rotated segments included). This is the crash-restart
// latency a monitoring node pays before it can resume scoring.
void BM_StoreReopen(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "hdd_bench_store_reopen";
  fs::remove_all(dir);
  const auto n_samples = static_cast<std::size_t>(state.range(0));
  const std::size_t n_drives = 64;
  {
    store::StoreOptions opt;
    opt.segment_bytes = 4ull << 20;  // several rotations at the larger size
    store::TelemetryStore store(dir.string(), opt);
    std::vector<std::uint32_t> ids;
    for (std::size_t d = 0; d < n_drives; ++d) {
      ids.push_back(store.register_drive("bench-" + std::to_string(d)));
    }
    std::int64_t hour = 0;
    for (std::size_t k = 0; k < n_samples; k += n_drives, ++hour) {
      const auto s = bench_sample(hour);
      for (const auto id : ids) store.append(id, s);
    }
    store.flush();
  }
  for (auto _ : state) {
    store::TelemetryStore store(dir.string());
    benchmark::DoNotOptimize(store.sample_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_samples));
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreReopen)
    ->Arg(100000)
    ->Arg(500000)
    ->Unit(benchmark::kMillisecond);

// The retrain window read: one week (168 h) of hour-major telemetry for
// range(0) drives, materialised per drive by read_window in one pass over
// the log. Time grows linearly with the drive count (items = samples).
void BM_StoreReadWindow(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "hdd_bench_store_window";
  fs::remove_all(dir);
  const auto n_drives = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kHours = 168;
  store::TelemetryStore store(dir.string());
  for (std::size_t d = 0; d < n_drives; ++d) {
    store.register_drive("bench-" + std::to_string(d));
  }
  for (std::int64_t hour = 0; hour < kHours; ++hour) {
    const auto s = bench_sample(hour);
    for (std::uint32_t id = 0; id < n_drives; ++id) store.append(id, s);
  }
  store.flush();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read_window(0, kHours - 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_drives * kHours));
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreReadWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_RankSum(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> xs, ys;
  for (int i = 0; i < state.range(0); ++i) {
    xs.push_back(rng.normal());
    ys.push_back(rng.normal(0.2, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::rank_sum_test(xs, ys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_RankSum)->Arg(1000)->Arg(10000);

void BM_RaidCtmcSolve(benchmark::State& state) {
  reliability::RaidPredictionParams p;
  p.n_drives = static_cast<int>(state.range(0));
  p.fdr = 0.9549;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::mttdl_raid_with_prediction(p));
  }
}
BENCHMARK(BM_RaidCtmcSolve)->Arg(100)->Arg(1000)->Arg(2500);

}  // namespace

BENCHMARK_MAIN();
