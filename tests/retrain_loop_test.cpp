// Serve-level continuous-update tests (ctest label: pipeline).
//
// Exercises the RetrainLoop promotion state machine against a live Server:
// a forced tick training from the daemon's own journals and hot-swapping a
// promoted generation fleet-wide, guardrail rejections leaving the
// incumbent untouched, the shadow-then-promote deferral, and
// ShardEngine::resume()'s generation reconciliation after a promotion that
// only reached a subset of shards (the crash-mid-promotion heal). The
// equivalence tests pin the daemon's cycle to the single-store
// UpdatePipeline cycle: the same candidate text, validation rates,
// outcome, reason and hdd_pipeline_* totals from the same drives.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "core/swappable.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "serve/client.h"
#include "serve/retrain_loop.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "store/telemetry_store.h"

namespace hdd::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kWeek = 168;
constexpr std::uint32_t kGoods = 12;
constexpr std::uint32_t kFaileds = 6;

float hval(std::uint32_t d, std::int64_t h, std::uint32_t salt) {
  std::uint32_t x = d * 2654435761u +
                    static_cast<std::uint32_t>(h) * 40503u + salt * 97u;
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 16;
  return static_cast<float>(x & 0xFFFF) / 32768.0f - 1.0f;  // [-1, 1)
}

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

// Separable telemetry: goods at +0.8, failures at -0.8 (same construction
// as pipeline_test, so train_and_gate promotes under default rails).
smart::Sample sample_at(std::uint32_t d, std::int64_t h, float bias) {
  smart::Sample s;
  s.hour = h;
  s.set(smart::Attr::kRawReadErrorRate, bias + 0.15f * hval(d, h, 1));
  s.set(smart::Attr::kTemperatureCelsius, hval(d, h, 2));
  return s;
}

std::string good_serial(std::uint32_t d) {
  return "good-" + std::to_string(d);
}

std::vector<smart::DriveRecord> failure_pool() {
  std::vector<smart::DriveRecord> out;
  for (std::uint32_t d = 0; d < kFaileds; ++d) {
    smart::DriveRecord rec;
    rec.serial = "failed-" + std::to_string(d);
    rec.failed = true;
    rec.fail_hour = kWeek;  // training anchors failed rows at fail_hour
    for (std::int64_t h = 0; h < kWeek; ++h) {
      rec.samples.push_back(sample_at(100 + d, h, -0.8f));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

// The hdd_pipeline_* counter totals a registry holds.
struct PipelineTotals {
  std::uint64_t cycles = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rejections = 0;
  bool operator==(const PipelineTotals&) const = default;
};

PipelineTotals pipeline_totals(obs::Registry& reg) {
  PipelineTotals t;
  t.cycles = reg.counter("hdd_pipeline_retrain_cycles_total", "").value();
  t.promotions = reg.counter("hdd_pipeline_promotions_total", "").value();
  for (const char* reason : {"lint", "guardrail", "no_data", "train_failed"}) {
    t.rejections += reg.counter("hdd_pipeline_rejections_total", "",
                                {{"reason", reason}})
                        .value();
  }
  return t;
}

pipeline::PipelineConfig pipeline_config(obs::Registry* reg) {
  pipeline::PipelineConfig pc;
  pc.trainer = core::paper_ct_config();
  pc.trainer.training.features = two_features();
  pc.trainer.training.good_samples_per_drive = 8;
  pc.trainer.vote.voters = 5;
  pc.metrics = reg;
  return pc;
}

class RetrainLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_retrain_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);

    std::vector<smart::DriveRecord> goods;
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      smart::DriveRecord rec;
      rec.serial = good_serial(d);
      for (std::int64_t h = 0; h < kWeek; ++h) {
        rec.samples.push_back(sample_at(d, h, 0.8f));
      }
      goods.push_back(std::move(rec));
    }
    const auto gate = pipeline::train_and_gate(std::move(goods),
                                               failure_pool(), 1,
                                               pipeline_config(nullptr));
    ASSERT_EQ(gate.outcome, pipeline::Outcome::kPromoted) << gate.reason;
    seed_ = gate.candidate;
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  ShardEngineConfig engine_config(std::size_t shards, obs::Registry* reg) {
    ShardEngineConfig ec;
    ec.dir = (base_dir_ / "s").string();
    ec.shards = shards;
    ec.runtime.scorer = seed_.get();
    ec.runtime.features = two_features();
    ec.runtime.vote.voters = 5;
    ec.runtime.block_rows = 4;
    ec.runtime.metrics = reg;
    ec.runtime.store.metrics = reg;
    ec.runtime.hot_swappable = true;
    return ec;
  }

  // Streams good-drive telemetry into the daemon over the wire.
  static void ingest_goods(Client& client, std::int64_t from,
                           std::int64_t to) {
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      IngestBatch b;
      for (std::int64_t h = from; h < to; ++h) {
        b.serials.push_back(good_serial(d));
        b.samples.push_back(sample_at(d, h, 0.8f));
      }
      const auto r = client.ingest(b);
      ASSERT_EQ(r.accepted, static_cast<std::uint64_t>(to - from));
    }
  }

  // One store holding the good drives of `engine`'s shards over
  // [0, hours), registered in shard order (shard 0's drives first, each
  // shard's in ingest order) — the window a multi-shard cycle reads.
  void fill_in_shard_order(store::TelemetryStore& st,
                           const ShardEngine& engine, std::int64_t hours) {
    for (std::size_t k = 0; k < engine.shard_count(); ++k) {
      for (std::uint32_t d = 0; d < kGoods; ++d) {
        if (engine.shard_of(good_serial(d)) != k) continue;
        const auto id = st.register_drive(good_serial(d));
        for (std::int64_t h = 0; h < hours; ++h) {
          st.append(id, sample_at(d, h, 0.8f));
        }
      }
    }
    st.flush();
  }

  // A forced single-store UpdatePipeline cycle over the same drives.
  pipeline::CycleResult single_store_cycle(const ShardEngine& engine,
                                           pipeline::PipelineConfig pc,
                                           store::TelemetryStore& st) {
    fill_in_shard_order(st, engine, kWeek);
    core::SwappableScorer slot(seed_, 0);
    pipeline::UpdatePipeline pipe(slot, st, failure_pool(), std::move(pc));
    return pipe.run_cycle(/*force=*/true);
  }

  fs::path base_dir_;
  std::shared_ptr<const core::SampleScorer> seed_;
};

// Opens the files under `dir` through `faulty` and everything else through
// the posix env: one shard's store on a fault plan, the rest healthy.
class OneShardFaultEnv final : public io::EnvWrapper {
 public:
  OneShardFaultEnv(io::Env& faulty, std::string dir)
      : io::EnvWrapper(io::Env::posix()),
        faulty_(&faulty),
        dir_(std::move(dir)) {}

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    if (path.rfind(dir_, 0) == 0) {
      return faulty_->new_append_file(path, truncate, out);
    }
    return io::EnvWrapper::new_append_file(path, truncate, out);
  }

 private:
  io::Env* faulty_;
  std::string dir_;
};

TEST_F(RetrainLoopTest, ForcedTickPromotesFleetWide) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  const auto r = loop.tick(/*force=*/true);
  ASSERT_EQ(r.outcome, pipeline::Outcome::kPromoted) << r.reason;
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(engine.max_generation(), 1u);
  // Every shard journaled the generation record durably.
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    ASSERT_TRUE(engine.shard(k).store().latest_generation().has_value());
    EXPECT_EQ(engine.shard(k).store().latest_generation()->generation, 1u);
  }
  // The wire stats report the new generation and the promotion outcome.
  const auto st = client.stats();
  EXPECT_EQ(st.generation, 1u);
  EXPECT_EQ(st.last_outcome,
            static_cast<std::uint8_t>(pipeline::Outcome::kPromoted));
  EXPECT_EQ(reg.gauge("hdd_pipeline_generation", "").value(), 1.0);
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 1u);

  // Ingest keeps working against the promoted generation.
  ingest_goods(client, kWeek, kWeek + 4);
  server.stop();
}

TEST_F(RetrainLoopTest, GuardrailRejectionLeavesIncumbent) {
  obs::Registry reg;
  ShardEngine engine(engine_config(1, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.guardrail.min_fdr = 1.01;  // unsatisfiable rail
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  const auto r = loop.tick(/*force=*/true);
  EXPECT_EQ(r.outcome, pipeline::Outcome::kRejectedGuardrail);
  EXPECT_EQ(engine.max_generation(), 0u);
  EXPECT_FALSE(engine.shard(0).store().latest_generation().has_value());
  EXPECT_EQ(reg.counter("hdd_pipeline_rejections_total", "",
                        {{"reason", "guardrail"}})
                .value(),
            1u);
  const auto st = client.stats();
  EXPECT_EQ(st.generation, 0u);
  EXPECT_EQ(st.last_outcome,
            static_cast<std::uint8_t>(pipeline::Outcome::kRejectedGuardrail));
  server.stop();
}

TEST_F(RetrainLoopTest, ShadowsBeforePromoting) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.min_shadow_samples = 50;
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  // Gates pass, but promotion is deferred until the candidate has
  // shadow-scored enough live traffic.
  const auto first = loop.tick(/*force=*/true);
  EXPECT_EQ(first.outcome, pipeline::Outcome::kSkipped);
  EXPECT_TRUE(loop.shadowing());
  EXPECT_EQ(engine.max_generation(), 0u);

  // Not enough shadow samples yet: the loop keeps waiting.
  const auto waiting = loop.tick(/*force=*/false);
  EXPECT_EQ(waiting.outcome, pipeline::Outcome::kSkipped);
  EXPECT_TRUE(loop.shadowing());

  // 12 drives x 10 hours = 120 live rows >= 50: the next tick promotes.
  ingest_goods(client, kWeek, kWeek + 10);
  const auto st_shadow = client.stats();
  EXPECT_GE(st_shadow.shadow_samples, 50u);
  const auto second = loop.tick(/*force=*/false);
  EXPECT_EQ(second.outcome, pipeline::Outcome::kPromoted) << second.reason;
  EXPECT_FALSE(loop.shadowing());
  EXPECT_EQ(engine.max_generation(), 1u);
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 1u);
  server.stop();
}

TEST_F(RetrainLoopTest, ShadowThenPromoteCountsOneCycle) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();
  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.min_shadow_samples = 50;
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));
  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  // The gated candidate counts as a cycle when it starts shadowing ...
  EXPECT_EQ(loop.tick(/*force=*/true).outcome, pipeline::Outcome::kSkipped);
  EXPECT_EQ(pipeline_totals(reg), (PipelineTotals{1, 0, 0}));
  // ... and as a promotion when it is swapped in, not as a second cycle.
  ingest_goods(client, kWeek, kWeek + 10);
  EXPECT_EQ(loop.tick(/*force=*/false).outcome,
            pipeline::Outcome::kPromoted);
  EXPECT_EQ(pipeline_totals(reg), (PipelineTotals{1, 1, 0}));
  EXPECT_EQ(engine.max_generation(), 1u);
  server.stop();
}

TEST_F(RetrainLoopTest, ForcedTickMatchesSingleStoreCycle) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();
  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));
  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);
  const auto served = loop.tick(/*force=*/true);
  server.stop();

  obs::Registry single_reg;
  store::TelemetryStore st((base_dir_ / "single").string());
  const auto single =
      single_store_cycle(engine, pipeline_config(&single_reg), st);

  ASSERT_EQ(served.outcome, pipeline::Outcome::kPromoted) << served.reason;
  ASSERT_EQ(single.outcome, pipeline::Outcome::kPromoted) << single.reason;
  EXPECT_EQ(served.generation, single.generation);
  EXPECT_EQ(served.val_far, single.val_far);
  EXPECT_EQ(served.val_fdr, single.val_fdr);
  ASSERT_TRUE(st.latest_generation().has_value());
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    ASSERT_TRUE(engine.shard(k).store().latest_generation().has_value());
    EXPECT_EQ(engine.shard(k).store().latest_generation()->model_text,
              st.latest_generation()->model_text)
        << "shard " << k;
  }
  EXPECT_EQ(pipeline_totals(reg), (PipelineTotals{1, 1, 0}));
  EXPECT_EQ(pipeline_totals(single_reg), (PipelineTotals{1, 1, 0}));
}

TEST_F(RetrainLoopTest, RejectionMatchesSingleStoreCycle) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();
  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.guardrail.min_fdr = 1.01;  // unsatisfiable rail
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));
  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);
  const auto served = loop.tick(/*force=*/true);
  server.stop();

  obs::Registry single_reg;
  auto pc = pipeline_config(&single_reg);
  pc.guardrail.min_fdr = 1.01;
  store::TelemetryStore st((base_dir_ / "single").string());
  const auto single = single_store_cycle(engine, std::move(pc), st);

  EXPECT_EQ(served.outcome, pipeline::Outcome::kRejectedGuardrail);
  EXPECT_EQ(single.outcome, served.outcome);
  EXPECT_EQ(single.reason, served.reason);
  EXPECT_FALSE(served.reason.empty());
  EXPECT_EQ(served.val_far, single.val_far);
  EXPECT_EQ(served.val_fdr, single.val_fdr);
  EXPECT_FALSE(st.latest_generation().has_value());
  EXPECT_EQ(pipeline_totals(reg), (PipelineTotals{1, 0, 1}));
  EXPECT_EQ(pipeline_totals(single_reg), (PipelineTotals{1, 0, 1}));
}

TEST_F(RetrainLoopTest, FailedGenerationRecordKeepsEveryShardOnIncumbent) {
  obs::Registry reg;
  // Shard 1's first fsync — its generation record — fails permanently.
  io::FaultPlan plan;
  plan.fail_fsync_n = 1;
  plan.fsync_error = io::ErrorClass::kPermanent;
  io::FaultEnv faulty(io::Env::posix(), plan, &reg);
  OneShardFaultEnv env(faulty, (base_dir_ / "s" / "shard-1").string());
  ShardEngineConfig ec = engine_config(2, &reg);
  ec.runtime.store.env = &env;
  ShardEngine engine(ec);
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();
  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));
  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  EXPECT_THROW((void)loop.tick(/*force=*/true), DataError);
  EXPECT_EQ(faulty.faults_injected(), 1u);
  // Journal-first: no shard swapped, because one record never became
  // durable.
  EXPECT_EQ(engine.max_generation(), 0u);
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    EXPECT_EQ(engine.shard(k).model_generation(), 0u) << "shard " << k;
  }
  EXPECT_FALSE(engine.shard(1).store().latest_generation().has_value());
  // The daemon is still up and answering.
  const auto st = client.stats();
  EXPECT_EQ(st.generation, 0u);
  EXPECT_EQ(st.samples, static_cast<std::uint64_t>(kGoods) * kWeek);
  server.stop();
}

TEST_F(RetrainLoopTest, ResumeReconcilesPartialPromotion) {
  obs::Registry reg;
  std::string model_text;
  {
    std::ostringstream os;
    seed_->save(os);
    model_text = os.str();
  }
  {
    // Ingest directly into a 2-shard engine (no server), then simulate a
    // kill -9 between the two shards' generation appends: only shard 0's
    // journal records generation 1.
    ShardEngine engine(engine_config(2, &reg));
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      IngestBatch b;
      for (std::int64_t h = 0; h < 24; ++h) {
        b.serials.push_back(good_serial(d));
        b.samples.push_back(sample_at(d, h, 0.8f));
      }
      engine.ingest(engine.shard_of(good_serial(d)), b);
    }
    engine.shard(0).store().append_generation(1, model_text);
    engine.seal();
  }
  // A fresh engine resumes: reconciliation re-journals the newest
  // generation into the lagging shard and swaps it in everywhere.
  ShardEngine engine(engine_config(2, nullptr));
  engine.resume();
  EXPECT_EQ(engine.max_generation(), 1u);
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    EXPECT_EQ(engine.shard(k).model_generation(), 1u) << "shard " << k;
    ASSERT_TRUE(engine.shard(k).store().latest_generation().has_value())
        << "shard " << k;
    EXPECT_EQ(engine.shard(k).store().latest_generation()->generation, 1u);
    EXPECT_EQ(engine.shard(k).store().latest_generation()->model_text,
              model_text);
  }
}

}  // namespace
}  // namespace hdd::serve
