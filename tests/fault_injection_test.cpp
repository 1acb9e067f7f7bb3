// Randomized fault-schedule property harness (ctest label: fault).
//
// Hundreds of seeded FaultPlans drive a journaled fleet-scoring run
// through ingest -> kill -> recover -> replay and assert the durability
// contract under injected faults:
//
//  * Determinism: the same seed produces the same injected-fault
//    sequence, the same recovery-taxonomy counters and the same
//    post-resume alarm set, run after run.
//  * Invariant B (no silent loss): when no journal append was dropped
//    before the crash, the resumed run raises byte-identical alarms
//    (drive, hour) to an uninterrupted fault-free run.
//  * Invariant A (clean degradation): when appends were dropped (ENOSPC,
//    short writes, injected write errors), recovery still completes with
//    every event accounted for in the taxonomy counters, and the fleet
//    keeps scoring.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/retry.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_engine.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDrives = 6;
constexpr std::int64_t kHours = 48;
// Upper bound on the crash-op draw: an unfaulted scenario performs ~350
// mutating ops, so most plans crash mid-run and some run to completion.
constexpr std::uint64_t kMaxOps = 420;

// Deterministic pseudo-random telemetry (same construction as
// durable_fleet_test): every value is a pure function of (drive, hour).
float hval(std::uint32_t d, std::int64_t h, std::uint32_t salt) {
  std::uint32_t x = d * 2654435761u +
                    static_cast<std::uint32_t>(h) * 40503u + salt * 97u;
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 16;
  return static_cast<float>(x & 0xFFFF) / 32768.0f - 1.0f;  // [-1, 1)
}

smart::Sample sample_for(std::uint32_t d, std::int64_t h) {
  smart::Sample s;
  s.hour = h;
  const float bias = 0.9f * (static_cast<float>(d % 3) - 1.0f);
  s.set(smart::Attr::kRawReadErrorRate, hval(d, h, 1) + bias);
  s.set(smart::Attr::kTemperatureCelsius, 10.0f * hval(d, h, 2));
  return s;
}

std::vector<smart::Sample> interval_at(std::int64_t h) {
  std::vector<smart::Sample> out(kDrives);
  for (std::uint32_t d = 0; d < kDrives; ++d) out[d] = sample_for(d, h);
  return out;
}

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

class MixScorer final : public SampleScorer {
 public:
  double predict(std::span<const float> x) const override {
    return static_cast<double>(x[0]) + 0.03 * static_cast<double>(x[1]);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = predict(xs.subspan(2 * r, 2));
    }
  }
  int num_features() const override { return 2; }
  std::string summary() const override { return "mix"; }
};

FleetScorerConfig test_config(obs::Registry* reg) {
  FleetScorerConfig cfg;
  cfg.features = two_features();
  cfg.vote.voters = 5;
  cfg.block_rows = 4;
  cfg.metrics = reg;
  return cfg;
}

struct Outcome {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
  bool operator==(const Outcome&) const = default;
};

std::vector<Outcome> outcomes(const FleetScorer& f) {
  std::vector<Outcome> out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    out[i] = {f.state(i).alarmed(), f.state(i).alarm_hour()};
  }
  return out;
}

std::string serial_of(std::uint32_t d) {
  return "drive-" + std::to_string(d);
}

// One uninterrupted, fault-free run: the ground truth.
std::vector<Outcome> baseline_run() {
  const MixScorer scorer;
  FleetScorer f(scorer, test_config(nullptr));
  for (std::uint32_t d = 0; d < kDrives; ++d) f.add_drive(serial_of(d));
  for (std::int64_t h = 0; h < kHours; ++h) {
    f.observe_samples(interval_at(h), h);
  }
  return outcomes(f);
}

// The six recovery-taxonomy branches, in a fixed comparison order.
std::vector<std::uint64_t> taxonomy_of(obs::Registry& reg) {
  const char* name = "hdd_store_recovery_outcomes_total";
  std::vector<std::uint64_t> out;
  for (const char* outcome : {"torn_tail", "crc_drop", "record_dropped",
                              "header_skip", "empty_deleted", "tmp_deleted"}) {
    out.push_back(reg.counter(name, "", {{"outcome", outcome}}).value());
  }
  return out;
}

struct ScenarioResult {
  bool crashed = false;  // CrashPoint fired during ingest
  bool errored = false;  // a store error escaped the scorer (e.g. at open)
  std::uint64_t journal_failures = 0;
  std::uint64_t faults = 0;
  std::uint64_t ops = 0;
  std::vector<std::string> fault_log;
  std::vector<std::uint64_t> taxonomy;  // from the clean recovery
  std::size_t samples_replayed = 0;
  std::vector<Outcome> final_outcomes;

  bool operator==(const ScenarioResult&) const = default;
};

// ingest-under-faults -> kill -> clean recover -> resume -> finish the run.
ScenarioResult run_scenario(const fs::path& dir, std::uint64_t seed) {
  fs::remove_all(dir);
  const MixScorer scorer;
  ScenarioResult rr;

  // Phase 1: journaled ingest with every I/O routed through the fault env.
  obs::Registry ingest_reg;
  io::FaultEnv fenv(io::Env::posix(), io::FaultPlan::random(seed, kMaxOps),
                    &ingest_reg);
  try {
    store::StoreOptions so;
    so.env = &fenv;
    so.metrics = &ingest_reg;
    so.retry.sleep = false;  // attempt accounting without wall-clock waits
    store::TelemetryStore store(dir.string(), so);
    FleetScorer f(scorer, test_config(&ingest_reg));
    for (std::uint32_t d = 0; d < kDrives; ++d) f.add_drive(serial_of(d));
    f.attach_journal(&store);
    for (std::int64_t h = 0; h < kHours; ++h) {
      f.observe_samples(interval_at(h), h);
    }
  } catch (const io::CrashPoint&) {
    rr.crashed = true;  // the simulated kill -9: all in-memory state is gone
  } catch (const std::exception&) {
    rr.errored = true;  // store-level failure outside the scorer's catches
  }
  rr.journal_failures =
      ingest_reg.counter("hdd_fleet_journal_append_failures_total", "")
          .value();
  rr.faults = fenv.faults_injected();
  rr.ops = fenv.ops();
  rr.fault_log = fenv.fault_log();

  // Phase 2: a fresh "process" recovers on healthy hardware, resumes the
  // voting state from the journal, and finishes the monitoring run.
  obs::Registry rec_reg;
  store::StoreOptions so2;
  so2.metrics = &rec_reg;
  store::TelemetryStore store(dir.string(), so2);
  rr.taxonomy = taxonomy_of(rec_reg);
  FleetScorer f(scorer, test_config(&rec_reg));
  const auto r = f.resume_from(store);
  rr.samples_replayed = r.samples_replayed;
  f.attach_journal(&store);
  // A crash during registration can leave only a prefix of the fleet in
  // the store (possible only before any sample landed); top the registry
  // back up, then re-observe everything after the resume point.
  for (std::size_t d = f.size(); d < kDrives; ++d) {
    f.add_drive(serial_of(static_cast<std::uint32_t>(d)));
  }
  for (std::int64_t h = r.last_hour + 1; h < kHours; ++h) {
    f.observe_samples(interval_at(h), h);
  }
  rr.final_outcomes = outcomes(f);
  return rr;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Injected faults are logged at kWarn by design; hundreds of scheduled
    // faults per run would swamp the test output.
    set_log_level(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_fault_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  fs::path base_dir_;
};

// Acceptance criterion: >= 200 randomized fault schedules pass
// kill-and-resume.
TEST_F(FaultInjectionTest, RandomizedFaultSchedulesKillAndResume) {
  const auto expected = baseline_run();
  std::size_t n_crashed = 0;
  std::size_t n_lossless = 0;
  std::size_t n_degraded = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto rr = run_scenario(base_dir_ / ("s" + std::to_string(seed)),
                                 seed);
    n_crashed += rr.crashed ? 1 : 0;
    ASSERT_EQ(rr.final_outcomes.size(), kDrives) << "seed " << seed;
    if (rr.journal_failures == 0 && !rr.errored) {
      // Invariant B: nothing was dropped before the kill, so the resumed
      // run must be indistinguishable from the uninterrupted one.
      ++n_lossless;
      EXPECT_EQ(rr.final_outcomes, expected)
          << "alarm divergence without data loss, seed " << seed;
    } else {
      // Invariant A: loss happened, but it was counted (scorer-side) and
      // recovery completed; the continued fleet still reached the end.
      ++n_degraded;
      EXPECT_GT(rr.faults + rr.journal_failures, 0u) << "seed " << seed;
    }
  }
  // The schedule distribution must actually exercise both regimes.
  EXPECT_GE(n_crashed, 100u);
  EXPECT_GE(n_lossless, 30u);
  EXPECT_GE(n_degraded, 30u);
}

// Acceptance criterion: same seed -> same injected-fault sequence, same
// recovery taxonomy counters, same post-resume alarm set, across two runs.
TEST_F(FaultInjectionTest, SameSeedIsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    // Same directory both times (the fault log records paths); run_scenario
    // wipes it first, so the second run starts from the same empty state.
    const auto first = run_scenario(base_dir_ / "x", seed);
    const auto second = run_scenario(base_dir_ / "x", seed);
    EXPECT_EQ(first.fault_log, second.fault_log) << "seed " << seed;
    EXPECT_EQ(first.taxonomy, second.taxonomy) << "seed " << seed;
    EXPECT_EQ(first.final_outcomes, second.final_outcomes) << "seed " << seed;
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

// Crash the compaction at EVERY op until it survives: after each crash the
// reopened store must hold either the old generation or the new one in
// full — the kSegCompacted supersede rule never yields a mix.
TEST_F(FaultInjectionTest, CompactionCrashSafeAtEveryOp) {
  constexpr std::uint32_t kCompactDrives = 4;
  constexpr std::int64_t kCompactHours = 60;
  constexpr std::int64_t kMinHour = 30;
  const fs::path golden = base_dir_ / "golden";
  {
    store::StoreOptions so;
    so.segment_bytes = 4096;  // several segments, so supersede has targets
    store::TelemetryStore store(golden.string(), so);
    for (std::uint32_t d = 0; d < kCompactDrives; ++d) {
      store.register_drive(serial_of(d));
    }
    for (std::int64_t h = 0; h < kCompactHours; ++h) {
      for (std::uint32_t d = 0; d < kCompactDrives; ++d) {
        store.append(d, sample_for(d, h));
      }
    }
    store.flush();
  }
  const std::size_t n_old = kCompactDrives * kCompactHours;
  const std::size_t n_new =
      kCompactDrives * static_cast<std::size_t>(kCompactHours - kMinHour);

  bool completed = false;
  std::uint64_t op = 0;
  while (!completed) {
    ++op;
    ASSERT_LT(op, 2000u) << "compaction never ran out of crash points";
    const fs::path dir = base_dir_ / ("op" + std::to_string(op));
    fs::remove_all(dir);
    fs::copy(golden, dir);

    io::FaultPlan plan;
    plan.seed = op;
    plan.crash_at_op = op;
    io::FaultEnv fenv(io::Env::posix(), plan);
    bool crashed = false;
    try {
      store::StoreOptions so;
      so.segment_bytes = 4096;
      so.env = &fenv;
      store::TelemetryStore store(dir.string(), so);
      store.compact(kMinHour);
    } catch (const io::CrashPoint&) {
      crashed = true;
    }
    completed = !crashed;

    // Clean reopen: one generation, whole.
    store::TelemetryStore after(dir.string());
    const std::size_t n = after.sample_count();
    ASSERT_TRUE(n == n_old || n == n_new)
        << "mixed generations after crash at op " << op << ": " << n;
    const std::int64_t expect_min = n == n_new ? kMinHour : 0;
    for (std::uint32_t d = 0; d < kCompactDrives; ++d) {
      const auto samples = after.read_drive(d);
      ASSERT_EQ(samples.size(), n / kCompactDrives);
      EXPECT_EQ(samples.front().hour, expect_min);
      EXPECT_EQ(samples.back().hour, kCompactHours - 1);
    }
    if (completed) {
      EXPECT_EQ(n, n_new) << "completed compaction must publish the new "
                             "generation";
    }
  }
  // The loop only terminates once a full compaction survived, and the op
  // index proves many distinct crash points were exercised on the way.
  EXPECT_GT(op, 50u);
}

// ENOSPC mid-compaction: the tmp file dies, the old generation survives
// untouched, and recovery counts the deleted tmp.
TEST_F(FaultInjectionTest, CompactionEnospcKeepsOldGeneration) {
  const fs::path dir = base_dir_ / "enospc";
  {
    store::TelemetryStore store(dir.string());
    store.register_drive("d0");
    for (std::int64_t h = 0; h < 40; ++h) store.append(0, sample_for(0, h));
    store.flush();
  }
  {
    io::FaultPlan plan;
    plan.enospc_after_bytes = 512;  // tmp write hits the wall mid-stream
    io::FaultEnv fenv(io::Env::posix(), plan);
    store::StoreOptions so;
    so.env = &fenv;
    store::TelemetryStore store(dir.string(), so);
    EXPECT_THROW(store.compact(10), DataError);
    EXPECT_GT(fenv.faults_injected(), 0u);
  }
  obs::Registry reg;
  store::StoreOptions so;
  so.metrics = &reg;
  store::TelemetryStore after(dir.string(), so);
  EXPECT_EQ(after.sample_count(), 40u);  // old generation, fully intact
  EXPECT_EQ(after.read_drive(0).front().hour, 0);
  EXPECT_EQ(reg.counter("hdd_store_recovery_outcomes_total", "",
                        {{"outcome", "tmp_deleted"}})
                .value(),
            1u);
}

// A transiently failing fsync is retried behind the store's back: the
// flush succeeds, and the retry + the injected fault are both metered.
TEST_F(FaultInjectionTest, TransientFsyncIsRetriedAndCounted) {
  obs::Registry reg;
  io::FaultPlan plan;
  plan.fail_fsync_n = 1;
  plan.fsync_error = io::ErrorClass::kTransient;
  io::FaultEnv fenv(io::Env::posix(), plan, &reg);
  store::StoreOptions so;
  so.env = &fenv;
  so.metrics = &reg;
  so.retry.sleep = false;
  store::TelemetryStore store((base_dir_ / "retry").string(), so);
  store.register_drive("d0");
  store.append(0, sample_for(0, 0));
  store.flush();  // first fsync injected-fails, the retry lands
  EXPECT_EQ(reg.counter("hdd_io_retries_total", "").value(), 1u);
  EXPECT_EQ(reg.counter("hdd_io_faults_injected_total", "").value(), 1u);
  EXPECT_EQ(store.read_drive(0).size(), 1u);
}

// An injected CrashPoint dumps the flight recorder before the exception
// unwinds: the spans recorded up to the crash land in
// <dir>/flight-<pid>.json as valid Chrome trace JSON for the post-mortem.
TEST_F(FaultInjectionTest, CrashPointDumpsFlightRecorder) {
  obs::Tracer::global().set_enabled(true);
  obs::Tracer::global().set_flight_dir(base_dir_.string());
  {
    // A completed span the dump must contain (in-flight spans are only
    // recorded when their scope closes, which is after the dump).
    const obs::ScopedSpan marker("fault_test_flight_marker");
  }
  io::FaultPlan plan;
  plan.crash_at_op = 5;
  io::FaultEnv fenv(io::Env::posix(), plan);
  store::StoreOptions so;
  so.env = &fenv;
  bool crashed = false;
  try {
    store::TelemetryStore store((base_dir_ / "flight").string(), so);
    store.register_drive("d0");
    for (std::int64_t h = 0; h < 40; ++h) store.append(0, sample_for(0, h));
    store.flush();
  } catch (const io::CrashPoint&) {
    crashed = true;
  }
  obs::Tracer::global().set_flight_dir("");
  obs::Tracer::global().set_enabled(false);
  ASSERT_TRUE(crashed);

  const fs::path file =
      base_dir_ / ("flight-" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(fs::exists(file));
  std::ifstream is(file);
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  EXPECT_TRUE(testjson::json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"flightReason\":\"crash-point\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fault_test_flight_marker\""), std::string::npos);
}

// A transiently failing operation retried behind the store's back shows
// up in the request's trace as an io.retry child span.
TEST_F(FaultInjectionTest, TransientRetryAppearsAsChildSpan) {
  obs::Tracer::global().set_enabled(true);
  io::FaultPlan plan;
  plan.fail_fsync_n = 1;
  plan.fsync_error = io::ErrorClass::kTransient;
  io::FaultEnv fenv(io::Env::posix(), plan);
  store::StoreOptions so;
  so.env = &fenv;
  so.retry.sleep = false;
  std::uint64_t trace_id = 0;
  {
    const obs::ScopedSpan root("fault_test_retry_root");
    trace_id = root.trace_id();
    store::TelemetryStore store((base_dir_ / "span").string(), so);
    store.register_drive("d0");
    store.append(0, sample_for(0, 0));
    store.flush();  // injected fsync failure -> one retry
  }
  obs::Tracer::global().set_enabled(false);
  bool found = false;
  for (const auto& s : obs::Tracer::global().snapshot(0)) {
    if (s.name != nullptr && std::string_view(s.name) == "io.retry" &&
        s.trace_id == trace_id) {
      found = true;
      ASSERT_NE(s.arg_name, nullptr);
      EXPECT_EQ(std::string_view(s.arg_name), "attempt");
      EXPECT_NE(s.parent_id, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// A permanently failing fsync exhausts no retries (non-transient errors
// fail fast) and surfaces as the store's DataError.
TEST_F(FaultInjectionTest, PermanentFsyncFailsFast) {
  obs::Registry reg;
  io::FaultPlan plan;
  plan.fail_fsync_n = 1;
  plan.fsync_error = io::ErrorClass::kPermanent;
  io::FaultEnv fenv(io::Env::posix(), plan, &reg);
  store::StoreOptions so;
  so.env = &fenv;
  so.metrics = &reg;
  so.retry.sleep = false;
  store::TelemetryStore store((base_dir_ / "perm").string(), so);
  store.register_drive("d0");
  store.append(0, sample_for(0, 0));
  EXPECT_THROW(store.flush(), DataError);
  EXPECT_EQ(reg.counter("hdd_io_retries_total", "").value(), 0u);
}

// Degraded-mode ingest under a filling disk: appends start failing, the
// scorer counts and skips them, keeps scoring, and latches degraded().
TEST_F(FaultInjectionTest, EnospcDegradesScoringWithoutStopping) {
  const MixScorer scorer;
  obs::Registry reg;
  io::FaultPlan plan;
  plan.enospc_after_bytes = 4096;  // a few intervals fit, then the wall
  io::FaultEnv fenv(io::Env::posix(), plan, &reg);
  store::StoreOptions so;
  so.env = &fenv;
  so.metrics = &reg;
  so.retry.sleep = false;
  store::TelemetryStore store((base_dir_ / "fill").string(), so);
  FleetScorer f(scorer, test_config(&reg));
  for (std::uint32_t d = 0; d < kDrives; ++d) f.add_drive(serial_of(d));
  f.attach_journal(&store);
  for (std::int64_t h = 0; h < kHours; ++h) {
    f.observe_samples(interval_at(h), h);  // must not throw
  }
  EXPECT_TRUE(f.degraded());
  EXPECT_GT(f.journal_failures(), 0u);
  EXPECT_EQ(reg.counter("hdd_fleet_journal_append_failures_total", "").value(),
            f.journal_failures());
  EXPECT_GT(reg.counter("hdd_io_faults_injected_total", "").value(), 0u);
  // Scoring continued past the wall: every healthy pre-wall sample plus
  // nothing after it would leave seen_ small; just require progress.
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    seen += f.state(i).samples_seen();
  }
  EXPECT_GT(seen, 0);
}

// Bit flips on the read path surface as taxonomy-counted recovery drops,
// never as crashes or silently wrong samples.
TEST_F(FaultInjectionTest, ReadBitFlipsAreCountedByRecovery) {
  const fs::path dir = base_dir_ / "flip";
  {
    store::TelemetryStore store(dir.string());
    store.register_drive("d0");
    for (std::int64_t h = 0; h < 20; ++h) store.append(0, sample_for(0, h));
    store.flush();
  }
  obs::Registry reg;
  io::FaultPlan plan;
  plan.read_flip_prob = 1.0;  // every read comes back with one bit wrong
  io::FaultEnv fenv(io::Env::posix(), plan, &reg);
  store::StoreOptions so;
  so.env = &fenv;
  so.metrics = &reg;
  store::TelemetryStore store(dir.string(), so);
  EXPECT_GT(fenv.faults_injected(), 0u);
  const auto& rec = store.recovery();
  // A flipped header skips the segment; a flipped body drops records at
  // the CRC. Either way the damage is visible in the recovery stats.
  EXPECT_GT(rec.segments_skipped + rec.records_dropped +
                (rec.tail_truncated ? 1u : 0u),
            0u);
}

// Quarantine: a non-finite sample is skipped everywhere — voting state,
// history, journal — and counted; healthy drives in the same interval
// score normally.
TEST_F(FaultInjectionTest, NonFiniteSamplesAreQuarantined) {
  const MixScorer scorer;
  obs::Registry reg;
  store::StoreOptions so;
  so.metrics = &reg;
  store::TelemetryStore store((base_dir_ / "quar").string(), so);
  FleetScorer f(scorer, test_config(&reg));
  for (std::uint32_t d = 0; d < kDrives; ++d) f.add_drive(serial_of(d));
  f.attach_journal(&store);
  for (std::int64_t h = 0; h < 4; ++h) {
    auto batch = interval_at(h);
    if (h == 2) {
      batch[3].set(smart::Attr::kRawReadErrorRate,
                   std::numeric_limits<float>::quiet_NaN());
    }
    f.observe_samples(batch, h);
  }
  EXPECT_EQ(f.quarantined_samples(), 1u);
  EXPECT_EQ(reg.counter("hdd_fleet_quarantined_samples_total", "").value(),
            1u);
  EXPECT_FALSE(f.degraded());  // quarantine is hygiene, not degradation
  EXPECT_EQ(f.state(3).samples_seen(), 3);  // skipped exactly one interval
  EXPECT_EQ(f.state(0).samples_seen(), 4);
  EXPECT_EQ(store.read_drive(3, 2, 2).size(), 0u);  // never journaled
  EXPECT_EQ(store.read_drive(0, 2, 2).size(), 1u);
}

// Out-of-domain values are quarantined only under kFullDomain.
TEST_F(FaultInjectionTest, DomainPolicyQuarantinesVendorRangeViolations) {
  smart::Sample s = sample_for(0, 0);
  EXPECT_EQ(smart::classify_sample(s, /*domain_check=*/false),
            smart::SampleFault::kNone);
  // The synthetic value is in [-1, 1): off the vendor 1-253 scale.
  EXPECT_EQ(smart::classify_sample(s, /*domain_check=*/true),
            smart::SampleFault::kOutOfDomain);
  s.set(smart::Attr::kSpinUpTime, std::numeric_limits<float>::infinity());
  EXPECT_EQ(smart::classify_sample(s, /*domain_check=*/false),
            smart::SampleFault::kNonFinite);
}

// --- serve-loop scenarios --------------------------------------------------
//
// The daemon's ingest path (ShardEngine -> FleetScorer::ingest_drive ->
// TelemetryStore::append_batch) under the same 200-seed fault schedules.
// Unlike the lockstep observe_samples harness above, drives here report on
// their own clocks in per-drive chunks, exactly as network clients send
// them.

constexpr std::uint64_t kServeMaxOps = 150;

serve::ShardEngineConfig serve_config(const fs::path& dir,
                                      const SampleScorer* scorer,
                                      io::Env* env, obs::Registry* reg) {
  serve::ShardEngineConfig ec;
  ec.dir = dir.string();
  ec.shards = 2;
  ec.runtime.scorer = scorer;
  ec.runtime.features = two_features();
  ec.runtime.vote.voters = 5;
  ec.runtime.block_rows = 4;
  ec.runtime.metrics = reg;
  ec.runtime.store.metrics = reg;
  ec.runtime.store.env = env;
  ec.runtime.store.retry.sleep = false;
  return ec;
}

serve::IngestBatch drive_chunk(std::uint32_t d, std::int64_t from,
                               std::int64_t to) {
  serve::IngestBatch b;
  for (std::int64_t h = from; h < to; ++h) {
    b.serials.push_back(serial_of(d));
    b.samples.push_back(sample_for(d, h));
  }
  return b;
}

void serve_ingest_all(serve::ShardEngine& engine, std::int64_t chunk_hours) {
  for (std::int64_t h = 0; h < kHours; h += chunk_hours) {
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      engine.ingest(engine.shard_of(serial_of(d)),
                    drive_chunk(d, h, std::min(h + chunk_hours, kHours)));
    }
  }
}

std::vector<Outcome> serve_outcomes(const serve::ShardEngine& engine) {
  std::vector<Outcome> out(kDrives);
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const auto q = engine.query(serial_of(d));
    out[d] = {q.alarmed, q.alarm_hour};
  }
  return out;
}

// Acceptance criterion: 200 randomized fault schedules through the serve
// ingest loop, kill -> restart -> resume -> idempotent re-send.
// Journal-before-score makes lossless runs exactly convergent: a sample is
// scored only once journaled, so resume + re-send reproduces the
// fault-free alarm state byte for byte.
TEST_F(FaultInjectionTest, ServeLoopKillRestartResume) {
  const MixScorer scorer;
  std::vector<Outcome> expected;
  {
    serve::ShardEngine ref(
        serve_config(base_dir_ / "ref", &scorer, nullptr, nullptr));
    serve_ingest_all(ref, 6);
    expected = serve_outcomes(ref);
  }
  // The biased construction must actually produce alarms to compare.
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const Outcome& o) { return o.alarmed; }));

  std::size_t n_crashed = 0;
  std::size_t n_lossless = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const fs::path dir = base_dir_ / ("s" + std::to_string(seed));
    fs::remove_all(dir);
    obs::Registry reg;
    io::FaultEnv fenv(io::Env::posix(),
                      io::FaultPlan::random(seed, kServeMaxOps), &reg);
    bool crashed = false;
    bool errored = false;
    try {
      serve::ShardEngine engine(serve_config(dir, &scorer, &fenv, &reg));
      serve_ingest_all(engine, 6);
    } catch (const io::CrashPoint&) {
      crashed = true;  // simulated kill -9 mid-ingest
    } catch (const std::exception&) {
      errored = true;  // store-level failure outside ingest_drive's catches
    }
    n_crashed += crashed ? 1 : 0;
    const std::uint64_t failures =
        reg.counter("hdd_fleet_journal_append_failures_total", "").value();

    // Restart on healthy hardware: recover, resume, re-send everything.
    obs::Registry rec_reg;
    serve::ShardEngine engine(
        serve_config(dir, &scorer, nullptr, &rec_reg));
    engine.resume();
    serve_ingest_all(engine, 6);

    if (failures == 0 && !errored) {
      // Invariant B: nothing was dropped pre-kill, so the resumed daemon
      // is indistinguishable from one that never died.
      ++n_lossless;
      EXPECT_EQ(serve_outcomes(engine), expected)
          << "alarm divergence without data loss, seed " << seed;
    } else {
      // Invariant A: loss happened but was counted, recovery completed,
      // and the restarted daemon still serves all drives.
      EXPECT_GT(fenv.faults_injected() + failures, 0u) << "seed " << seed;
      for (std::uint32_t d = 0; d < kDrives; ++d) {
        EXPECT_TRUE(engine.query(serial_of(d)).known) << "seed " << seed;
      }
    }
  }
  EXPECT_GE(n_crashed, 80u);
  EXPECT_GE(n_lossless, 30u);
}

// An Env whose Nth File::append fails with nothing landed: a batch that
// spans segment rotations indexes the chunks written before it and then
// throws.
class FailNthAppendEnv final : public io::EnvWrapper {
 public:
  FailNthAppendEnv(io::Env& target, int fail_on_append)
      : EnvWrapper(target), fail_on_append_(fail_on_append) {}

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    std::unique_ptr<io::File> real;
    if (auto s = EnvWrapper::new_append_file(path, truncate, real); !s.ok()) {
      return s;
    }
    out = std::make_unique<FailingFile>(std::move(real), this);
    return io::IoStatus::success();
  }

 private:
  class FailingFile final : public io::File {
   public:
    FailingFile(std::unique_ptr<io::File> real, FailNthAppendEnv* env)
        : real_(std::move(real)), env_(env) {}
    io::IoStatus append(std::string_view data) override {
      if (++env_->appends_ == env_->fail_on_append_) {
        return io::IoStatus::transient_error("injected append failure");
      }
      return real_->append(data);
    }
    io::IoStatus flush() override { return real_->flush(); }
    io::IoStatus sync() override { return real_->sync(); }
    io::IoStatus close() override { return real_->close(); }
    void abandon() override { real_->abandon(); }

   private:
    std::unique_ptr<io::File> real_;
    FailNthAppendEnv* env_;
  };

  int appends_ = 0;
  const int fail_on_append_;
};

// A batch whose journal write fails after some chunks were indexed is
// dropped in memory; the producer re-sends it. The re-send must score the
// whole batch (the indexed prefix included) without journaling any hour
// twice, so the live engine agrees with one resumed from the same store.
TEST_F(FaultInjectionTest, ResentBatchAfterPartialJournalWriteScoresOnce) {
  const MixScorer scorer;
  obs::Registry reg;
  // Segments of three sample frames: the 8-sample batch spans rotations,
  // and append #6 (a later chunk's segment) fails.
  FailNthAppendEnv env(io::Env::posix(), /*fail_on_append=*/6);
  store::StoreOptions so;
  so.env = &env;
  so.metrics = &reg;
  so.retry.sleep = false;
  so.segment_bytes =
      store::kSegmentHeaderBytes + 64 + 3 * store::kSampleFrameBytes;
  store::TelemetryStore store((base_dir_ / "resend").string(), so);
  FleetScorer live(scorer, test_config(&reg));
  live.add_drive(serial_of(0));
  live.attach_journal(&store);
  std::vector<smart::Sample> batch;
  for (std::int64_t h = 0; h < 8; ++h) batch.push_back(sample_for(0, h));

  const auto first = live.ingest_drive(0, batch);
  ASSERT_TRUE(first.journal_failed);
  EXPECT_EQ(first.accepted, 0u);
  EXPECT_EQ(live.state(0).samples_seen(), 0);
  // The scenario: a strict prefix of the batch is indexed in the journal.
  ASSERT_GT(store.drive(0).n_samples, 0u);
  ASSERT_LT(store.drive(0).n_samples, batch.size());

  const auto again = live.ingest_drive(0, batch);
  EXPECT_FALSE(again.journal_failed);
  EXPECT_EQ(again.stale, 0u);
  EXPECT_EQ(again.accepted, batch.size());
  store.flush();

  const auto held = store.read_drive(0);
  ASSERT_EQ(held.size(), batch.size());
  for (std::size_t k = 0; k < held.size(); ++k) {
    EXPECT_EQ(held[k].hour, static_cast<std::int64_t>(k));
  }
  FleetScorer resumed(scorer, test_config(&reg));
  resumed.resume_from(store, /*drop_partial_tail=*/false);
  EXPECT_EQ(live.state(0).alarmed(), resumed.state(0).alarmed());
  EXPECT_EQ(live.state(0).alarm_hour(), resumed.state(0).alarm_hour());
  EXPECT_EQ(live.state(0).samples_seen(), resumed.state(0).samples_seen());
}

// The retry policy's attempt accounting, without any filesystem.
TEST_F(FaultInjectionTest, RetryerBoundsAndClassifies) {
  obs::Registry reg;
  io::RetryPolicy pol;
  pol.max_attempts = 4;
  pol.sleep = false;
  const io::Retryer retry(pol, &reg);

  int calls = 0;
  auto s = retry.run("flaky", [&] {
    ++calls;
    return calls < 3 ? io::IoStatus::transient_error("busy", EBUSY)
                     : io::IoStatus::success();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(reg.counter("hdd_io_retries_total", "").value(), 2u);

  calls = 0;
  s = retry.run("dead", [&] {
    ++calls;
    return io::IoStatus::permanent_error("no space", ENOSPC);
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);  // permanent errors never retry
  EXPECT_EQ(reg.counter("hdd_io_retries_total", "").value(), 2u);

  calls = 0;
  s = retry.run("always-busy", [&] {
    ++calls;
    return io::IoStatus::transient_error("busy", EBUSY);
  });
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.transient());
  EXPECT_EQ(calls, 4);  // bounded by max_attempts
}

}  // namespace
}  // namespace hdd::core
