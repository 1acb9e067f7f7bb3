// The kill-and-resume property of journaled streaming (ISSUE acceptance
// criterion): a FleetScorer resumed from its TelemetryStore after an
// interrupt at ANY interval raises byte-identical alarms (drive, hour) to
// the uninterrupted run — including when the interrupt tore the final
// append mid-record.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "obs/metrics.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDrives = 6;
constexpr std::int64_t kHours = 48;

// Deterministic pseudo-random telemetry: every attribute value is a pure
// function of (drive, hour), so any two runs observe identical samples.
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
  // Per-drive bias so some drives alarm early, some late, some never.
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

// Two features — one level, one 6-hour change rate — so the bounded history
// window actually matters to the score.
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

FleetScorerConfig test_config() {
  FleetScorerConfig cfg;
  cfg.features = two_features();
  cfg.vote.voters = 5;
  cfg.block_rows = 4;  // exercise multi-block paths with 6 drives
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

// The ground truth: one uninterrupted streaming run over all kHours.
std::vector<Outcome> baseline_run(const SampleScorer& scorer) {
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  return outcomes(f);
}

class DurableFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_durable_fleet_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  std::string store_dir(const std::string& tag) const {
    return (base_dir_ / tag).string();
  }

  fs::path base_dir_;
};

TEST_F(DurableFleetTest, ResumeAtAnyIntervalGivesIdenticalAlarms) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);
  // The scenario is only meaningful if some — but not all — drives alarm.
  std::size_t n_alarmed = 0;
  for (const auto& o : expected) n_alarmed += o.alarmed ? 1 : 0;
  ASSERT_GT(n_alarmed, 0u);
  ASSERT_LT(n_alarmed, kDrives);

  for (const std::int64_t kill_after : {1, 3, 7, 12, 25, 37, 47, 48}) {
    const std::string dir = store_dir("kill" + std::to_string(kill_after));
    // Phase 1: journaled run, killed after `kill_after` intervals.
    {
      store::TelemetryStore store(dir);
      FleetScorer f(scorer, test_config());
      for (std::uint32_t d = 0; d < kDrives; ++d) {
        f.add_drive("drive-" + std::to_string(d));
      }
      f.attach_journal(&store);
      for (std::int64_t h = 0; h < kill_after; ++h) {
        const auto batch = interval_at(h);
        f.observe_samples(batch, h);
      }
    }  // scorer state is GONE; only the store survives the "crash"

    // Phase 2: fresh process — resume from the log and keep monitoring.
    store::TelemetryStore store(dir);
    FleetScorer f(scorer, test_config());
    const auto r = f.resume_from(store);
    EXPECT_EQ(r.drives, kDrives);
    EXPECT_EQ(r.partial_dropped, 0u);  // clean kill between intervals
    EXPECT_EQ(r.last_hour, kill_after - 1);
    f.attach_journal(&store);
    for (std::int64_t h = r.last_hour + 1; h < kHours; ++h) {
      const auto batch = interval_at(h);
      f.observe_samples(batch, h);
    }

    EXPECT_EQ(outcomes(f), expected)
        << "alarm divergence after kill at interval " << kill_after;
  }
}

TEST_F(DurableFleetTest, ResumeAfterTornAppendGivesIdenticalAlarms) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);

  const std::int64_t kill_after = 20;
  const std::string dir = store_dir("torn");
  {
    store::TelemetryStore store(dir);
    FleetScorer f(scorer, test_config());
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      f.add_drive("drive-" + std::to_string(d));
    }
    f.attach_journal(&store);
    for (std::int64_t h = 0; h < kill_after; ++h) {
      const auto batch = interval_at(h);
      f.observe_samples(batch, h);
    }
  }
  // The "crash" tears the final append mid-record: the last drive's sample
  // at hour 19 loses its trailing bytes.
  fs::path seg;
  for (const auto& e : fs::directory_iterator(dir)) seg = e.path();
  ASSERT_FALSE(seg.empty());
  fs::resize_file(seg, fs::file_size(seg) - 5);

  // A private metrics registry for the resumed process: the recovery
  // taxonomy must report exactly what was injected — one torn-tail
  // truncation, nothing else.
  obs::Registry reg;
  store::StoreOptions sopt;
  sopt.metrics = &reg;
  store::TelemetryStore store(dir, sopt);
  EXPECT_TRUE(store.recovery().tail_truncated);
  const char* rec = "hdd_store_recovery_outcomes_total";
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "torn_tail"}}).value(), 1u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "crc_drop"}}).value(), 0u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "header_skip"}}).value(), 0u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "record_dropped"}}).value(), 0u);
  auto cfg = test_config();
  cfg.metrics = &reg;
  FleetScorer f(scorer, cfg);
  const auto r = f.resume_from(store);
  EXPECT_EQ(reg.counter("hdd_fleet_journal_resume_total", "").value(), 1u);
  EXPECT_EQ(reg.counter("hdd_fleet_resume_samples_total", "").value(),
            r.samples_replayed);
  // The torn interval (hour 19) is dropped for every drive so the fleet
  // resumes aligned...
  EXPECT_EQ(r.partial_dropped, kDrives - 1);
  EXPECT_EQ(r.last_hour, kill_after - 2);
  f.attach_journal(&store);
  // ...and re-observing hour 19 completes it (appends are idempotent per
  // store hour, so drives that kept hour 19 on disk are not duplicated).
  for (std::int64_t h = r.last_hour + 1; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  EXPECT_EQ(outcomes(f), expected);

  // The re-observed interval left exactly one copy per drive on disk.
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    EXPECT_EQ(store.read_drive(d, 19, 19).size(), 1u);
  }
}

// resume_from with an empty registry adopts the store's fleet; with a
// mismatched registry it must refuse rather than misattribute telemetry.
TEST_F(DurableFleetTest, ResumeValidatesRegistry) {
  const MixScorer scorer;
  const std::string dir = store_dir("reg");
  store::TelemetryStore store(dir);
  store.register_drive("drive-0");
  store.append(0, sample_for(0, 0));
  store.flush();

  FleetScorer adopting(scorer, test_config());
  const auto r = adopting.resume_from(store);
  EXPECT_EQ(r.drives, 1u);
  EXPECT_EQ(adopting.serial(0), "drive-0");

  FleetScorer mismatched(scorer, test_config());
  mismatched.add_drive("other-drive");
  EXPECT_THROW(mismatched.resume_from(store), ConfigError);

  FleetScorer wrong_size(scorer, test_config());
  wrong_size.add_drive("drive-0");
  wrong_size.add_drive("drive-1");
  EXPECT_THROW(wrong_size.resume_from(store), ConfigError);
}

TEST_F(DurableFleetTest, ObserveSamplesValidatesInput) {
  const MixScorer scorer;
  FleetScorer f(scorer, test_config());
  f.add_drive("a");
  f.add_drive("b");
  std::vector<smart::Sample> wrong_count(1);
  EXPECT_THROW(f.observe_samples(wrong_count, 0), ConfigError);
  std::vector<smart::Sample> wrong_hour(2);
  wrong_hour[0].hour = 0;
  wrong_hour[1].hour = 3;  // not the interval hour
  EXPECT_THROW(f.observe_samples(wrong_hour, 0), ConfigError);
}

// Observing the same interval twice is a no-op: the second copy is not
// after any drive's newest hour, so it neither votes nor reaches the
// journal again.
TEST_F(DurableFleetTest, ReobservingAnIntervalChangesNothing) {
  const MixScorer scorer;
  store::TelemetryStore store(store_dir("reobserve"));
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  struct DriveState {
    bool alarmed;
    std::int64_t alarm_hour;
    std::int64_t samples_seen;
    bool decision;
    bool operator==(const DriveState&) const = default;
  };
  const auto snapshot = [&] {
    std::vector<DriveState> out;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const auto& s = f.state(i);
      out.push_back({s.alarmed(), s.alarm_hour(), s.samples_seen(),
                     s.current_decision()});
    }
    return out;
  };
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
    const auto before = snapshot();
    const std::size_t journaled = store.sample_count();
    f.observe_samples(batch, h);
    EXPECT_EQ(snapshot(), before) << "hour " << h;
    EXPECT_EQ(store.sample_count(), journaled) << "hour " << h;
  }
  EXPECT_EQ(outcomes(f), baseline_run(scorer));
}

// Journal-less observe_samples equals journaled observe_samples: the
// durability layer must not perturb scoring.
TEST_F(DurableFleetTest, JournalDoesNotChangeDecisions) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);  // no journal attached

  store::TelemetryStore store(store_dir("journal"));
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  EXPECT_EQ(outcomes(f), expected);
  EXPECT_EQ(store.sample_count(), kDrives * static_cast<std::size_t>(kHours));
}

}  // namespace
}  // namespace hdd::core
