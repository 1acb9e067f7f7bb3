// Serve subsystem tests (ctest label: serve; TSan-clean by requirement).
//
// Covers the wire codec (round-trips, malformed/truncated/corrupt-frame
// rejection, incremental framing), the ShardEngine (ingest/query/stats,
// idempotent re-send, crash-resume with byte-identical alarms, shard-count
// layout guard, serving a persisted tree or forest file) and the Server
// end to end over localhost: batched ingest, per-drive query, /metrics
// scrape, wire shutdown, and a concurrent-ingest kill -> restart -> resume
// property test under injected crash points.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "core/scorer.h"
#include "forest/random_forest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/shutdown.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "serve/wire.h"

namespace hdd::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kDrives = 6;
constexpr std::int64_t kHours = 48;

// Same deterministic telemetry construction as the fault-injection tests:
// every value is a pure function of (drive, hour).
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

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

class MixScorer final : public core::SampleScorer {
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

std::string serial_of(std::uint32_t d) {
  return "drive-" + std::to_string(d);
}

ShardEngineConfig engine_config(const fs::path& dir, std::size_t shards,
                                const core::SampleScorer* scorer,
                                obs::Registry* reg) {
  ShardEngineConfig ec;
  ec.dir = dir.string();
  ec.shards = shards;
  ec.runtime.scorer = scorer;
  ec.runtime.features = two_features();
  ec.runtime.vote.voters = 5;
  ec.runtime.block_rows = 4;
  ec.runtime.metrics = reg;
  ec.runtime.store.metrics = reg;
  return ec;
}

// The full per-drive telemetry as one batch per drive, hour-ascending.
IngestBatch batch_for_drive(std::uint32_t d, std::int64_t from_hour,
                            std::int64_t to_hour) {
  IngestBatch b;
  for (std::int64_t h = from_hour; h < to_hour; ++h) {
    b.serials.push_back(serial_of(d));
    b.samples.push_back(sample_for(d, h));
  }
  return b;
}

struct Outcome {
  bool known = false;
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
  bool operator==(const Outcome&) const = default;
};

std::vector<Outcome> outcomes(const ShardEngine& engine) {
  std::vector<Outcome> out(kDrives);
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const auto q = engine.query(serial_of(d));
    out[d] = {q.known, q.alarmed, q.alarm_hour};
  }
  return out;
}

// Feed every drive's full history into the engine, routed by shard.
void ingest_all(ShardEngine& engine, std::int64_t from = 0,
                std::int64_t to = kHours) {
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const auto b = batch_for_drive(d, from, to);
    engine.ingest(engine.shard_of(serial_of(d)), b);
  }
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(Wire, IngestRequestRoundTrip) {
  IngestBatch b = batch_for_drive(3, 0, 5);
  b.serials.push_back("another");
  b.samples.push_back(sample_for(1, 7));
  const auto req = decode_request(encode_ingest_request(b));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->op, Op::kIngest);
  ASSERT_EQ(req->ingest.serials, b.serials);
  ASSERT_EQ(req->ingest.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < b.samples.size(); ++i) {
    EXPECT_EQ(req->ingest.samples[i].hour, b.samples[i].hour);
    EXPECT_EQ(req->ingest.samples[i].attrs, b.samples[i].attrs);
  }
}

TEST(Wire, ControlRequestsRoundTrip) {
  const auto q = decode_request(encode_query_request("serial-x"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->op, Op::kQuery);
  EXPECT_EQ(q->serial, "serial-x");

  const auto s = decode_request(encode_stats_request());
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->op, Op::kStats);

  const auto d = decode_request(encode_shutdown_request());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->op, Op::kShutdown);
}

TEST(Wire, ResponsesRoundTrip) {
  IngestResponse ir;
  ir.accepted = 41;
  ir.stale = 3;
  ir.quarantined = 2;
  ir.journal_failed = 1;
  ir.degraded = true;
  const std::string ip = encode_ingest_response(ir);
  EXPECT_EQ(decode_status(ip), Status::kOk);
  const auto ir2 = decode_ingest_response(ip);
  ASSERT_TRUE(ir2.has_value());
  EXPECT_EQ(ir2->accepted, 41u);
  EXPECT_EQ(ir2->stale, 3u);
  EXPECT_EQ(ir2->quarantined, 2u);
  EXPECT_EQ(ir2->journal_failed, 1u);
  EXPECT_TRUE(ir2->degraded);

  QueryResponse qr;
  qr.known = true;
  qr.alarmed = true;
  qr.alarm_hour = 17;
  qr.samples_seen = 99;
  qr.last_hour = 47;
  const auto qr2 = decode_query_response(encode_query_response(qr));
  ASSERT_TRUE(qr2.has_value());
  EXPECT_TRUE(qr2->known);
  EXPECT_TRUE(qr2->alarmed);
  EXPECT_EQ(qr2->alarm_hour, 17);
  EXPECT_EQ(qr2->samples_seen, 99u);
  EXPECT_EQ(qr2->last_hour, 47);

  StatsResponse sr;
  sr.drives = 6;
  sr.samples = 288;
  sr.alarms = 2;
  sr.degraded = false;
  const auto sr2 = decode_stats_response(encode_stats_response(sr));
  ASSERT_TRUE(sr2.has_value());
  EXPECT_EQ(sr2->drives, 6u);
  EXPECT_EQ(sr2->samples, 288u);
  EXPECT_EQ(sr2->alarms, 2u);

  const std::string ep = encode_error_response(Status::kBadRequest, "nope");
  EXPECT_EQ(decode_status(ep), Status::kBadRequest);
  EXPECT_EQ(decode_error_message(ep), "nope");
}

TEST(Wire, RejectsMalformedRequests) {
  // Empty payload, unknown op, truncated ingest body.
  EXPECT_FALSE(decode_request("").has_value());
  EXPECT_FALSE(decode_request(std::string(1, '\x09')).has_value());
  std::string ingest = encode_ingest_request(batch_for_drive(0, 0, 3));
  EXPECT_FALSE(decode_request(ingest.substr(0, ingest.size() - 7))
                   .has_value());
  // Trailing junk after a well-formed body.
  EXPECT_FALSE(decode_request(ingest + "x").has_value());
  // A count field that promises more entries than the payload can hold.
  std::string lying = ingest;
  lying[1] = '\xff';
  lying[2] = '\xff';
  lying[3] = '\xff';
  lying[4] = '\x7f';
  EXPECT_FALSE(decode_request(lying).has_value());
}

TEST(Wire, TraceIdRoundTripsOnEveryOp) {
  constexpr std::uint64_t kId = 0xabcdef1234567890ull;
  const auto i =
      decode_request(encode_ingest_request(batch_for_drive(1, 0, 3), kId));
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->trace_id, kId);
  const auto q = decode_request(encode_query_request("serial-x", kId));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->trace_id, kId);
  EXPECT_EQ(q->serial, "serial-x");
  const auto s = decode_request(encode_stats_request(kId));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->trace_id, kId);
  const auto d = decode_request(encode_shutdown_request(kId));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->trace_id, kId);
}

TEST(Wire, TraceIdFieldIsBackwardCompatible) {
  // Untraced frames are byte-identical to the pre-trace wire format, so
  // old servers keep accepting them.
  EXPECT_EQ(encode_query_request("abc", 0), encode_query_request("abc"));
  EXPECT_EQ(encode_stats_request(0).size() + 8,
            encode_stats_request(77).size());
  // Old-client frames (no trailing field) decode with trace_id 0.
  const auto req = decode_request(encode_query_request("abc"));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->trace_id, 0u);
  // Only exactly 8 trailing bytes are a trace id; anything else is still
  // a protocol error.
  const std::string stats = encode_stats_request();
  EXPECT_FALSE(decode_request(stats + "1234567").has_value());
  EXPECT_FALSE(decode_request(stats + "123456789").has_value());
}

TEST(Wire, FrameParserReassemblesByteAtATime) {
  const std::string payload = encode_query_request("abc");
  const std::string framed = frame_payload(payload);
  FrameParser parser;
  std::string got;
  for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
    parser.feed(std::string_view(&framed[i], 1));
    EXPECT_EQ(parser.next(got), FrameParser::Result::kNeedMore);
  }
  parser.feed(std::string_view(&framed[framed.size() - 1], 1));
  ASSERT_EQ(parser.next(got), FrameParser::Result::kFrame);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(parser.next(got), FrameParser::Result::kNeedMore);
}

TEST(Wire, FrameParserRejectsCorruptFrames) {
  std::string framed = frame_payload(encode_stats_request());
  framed[framed.size() - 1] ^= 0x01;  // flip a payload bit -> CRC mismatch
  FrameParser parser;
  parser.feed(framed);
  std::string got;
  EXPECT_EQ(parser.next(got), FrameParser::Result::kCorrupt);
  // Corruption is sticky: resynchronizing mid-stream is not attempted.
  parser.feed(frame_payload(encode_stats_request()));
  EXPECT_EQ(parser.next(got), FrameParser::Result::kCorrupt);

  // An absurd length field is corrupt immediately, not a 4 GiB wait.
  FrameParser parser2;
  parser2.feed(std::string("\xff\xff\xff\xff\0\0\0\0", 8));
  EXPECT_EQ(parser2.next(got), FrameParser::Result::kCorrupt);
}

TEST(Wire, FrameParserRefusesToBufferPastHostileLength) {
  // The hostile length prefix is caught at feed() time: once the 8 header
  // bytes announce an over-cap payload, the parser drops its buffer and
  // stops accepting bytes instead of accumulating toward 4 GiB.
  FrameParser parser;
  std::string header;
  for (unsigned char c : {0xff, 0xff, 0xff, 0xff}) header.push_back(char(c));
  header.append(4, '\0');
  parser.feed(header);
  EXPECT_EQ(parser.buffered(), 0u);
  parser.feed(std::string(1 << 16, 'x'));
  EXPECT_EQ(parser.buffered(), 0u);
  std::string got;
  EXPECT_EQ(parser.next(got), FrameParser::Result::kCorrupt);

  // A zero length is the same protocol error.
  FrameParser parser2;
  parser2.feed(std::string(8, '\0'));
  EXPECT_EQ(parser2.buffered(), 0u);
  EXPECT_EQ(parser2.next(got), FrameParser::Result::kCorrupt);

  // The boundary walk follows chained lengths: a hostile header *behind* a
  // valid undrained frame is also caught at feed() time.
  FrameParser parser3;
  parser3.feed(frame_payload(encode_stats_request()));
  parser3.feed(header);
  EXPECT_EQ(parser3.buffered(), 0u);
  EXPECT_EQ(parser3.next(got), FrameParser::Result::kCorrupt);
}

// ---------------------------------------------------------------------------
// ShardEngine

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_serve_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);
    io::reset_shutdown_for_tests();
  }
  void TearDown() override {
    io::reset_shutdown_for_tests();
    fs::remove_all(base_dir_);
  }

  fs::path base_dir_;
  MixScorer scorer_;
};

TEST_F(ServeTest, EngineIngestQueryStats) {
  ShardEngine engine(engine_config(base_dir_ / "s", 2, &scorer_, nullptr));
  ingest_all(engine);

  const auto known = engine.query(serial_of(0));
  EXPECT_TRUE(known.known);
  EXPECT_EQ(known.last_hour, kHours - 1);
  // Drive 2 has the +0.9 bias (healthy margins): it never alarms, so its
  // vote state sees every hour (an alarmed drive freezes its counter).
  const auto healthy = engine.query(serial_of(2));
  EXPECT_TRUE(healthy.known);
  EXPECT_FALSE(healthy.alarmed);
  EXPECT_EQ(healthy.samples_seen, static_cast<std::uint64_t>(kHours));
  EXPECT_FALSE(engine.query("never-seen").known);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.drives, kDrives);
  EXPECT_EQ(stats.samples, static_cast<std::uint64_t>(kDrives) * kHours);
  EXPECT_GT(stats.alarms, 0u);  // the biased drives trip the voters
  EXPECT_FALSE(stats.degraded);
}

TEST_F(ServeTest, EngineResendIsIdempotent) {
  ShardEngine engine(engine_config(base_dir_ / "s", 2, &scorer_, nullptr));
  ingest_all(engine);
  const auto before = outcomes(engine);
  const auto b = batch_for_drive(0, 0, kHours);
  const auto r = engine.ingest(engine.shard_of(serial_of(0)), b);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(r.stale, static_cast<std::uint64_t>(kHours));
  EXPECT_EQ(outcomes(engine), before);
  EXPECT_EQ(engine.stats().samples,
            static_cast<std::uint64_t>(kDrives) * kHours);
}

TEST_F(ServeTest, EngineRestartResumesByteIdenticalAlarms) {
  std::vector<Outcome> live;
  {
    ShardEngine engine(engine_config(base_dir_ / "s", 3, &scorer_, nullptr));
    ingest_all(engine);
    live = outcomes(engine);
    engine.seal();
  }
  ShardEngine resumed(engine_config(base_dir_ / "s", 3, &scorer_, nullptr));
  EXPECT_EQ(resumed.resume(), static_cast<std::size_t>(kDrives) * kHours);
  EXPECT_EQ(outcomes(resumed), live);
}

TEST_F(ServeTest, EngineRefusesShardCountMismatch) {
  {
    ShardEngine engine(engine_config(base_dir_ / "s", 3, &scorer_, nullptr));
    ingest_all(engine);
  }
  EXPECT_THROW(
      ShardEngine(engine_config(base_dir_ / "s", 2, &scorer_, nullptr)),
      ConfigError);
}

// Rows shaped like two_features(): feature 0 carries the label, as the
// biased drives' read-error rate does; feature 1 is noise.
data::DataMatrix two_feature_matrix() {
  Rng rng(11);
  data::DataMatrix m(2);
  for (int i = 0; i < 400; ++i) {
    const float row[] = {static_cast<float>(rng.uniform(-2.0, 2.0)),
                         static_cast<float>(rng.uniform(-20.0, 20.0))};
    const double margin = row[0] + rng.normal(0.0, 0.3);
    m.add_row(row, margin < 0.0 ? -1.0f : 1.0f, 1.0f);
  }
  return m;
}

// A 2-shard engine started from the model file at `path` (strict verify)
// must hold, drive for drive, the vote states of an in-memory runtime over
// `model` fed the same samples.
void expect_engine_matches_in_memory(const fs::path& dir,
                                     const std::string& path,
                                     const core::SampleScorer& model) {
  ShardEngineConfig ec = engine_config(dir / "engine", 2, nullptr, nullptr);
  ec.runtime.model_path = path;
  ec.runtime.load.verify = core::VerifyMode::kStrict;
  ShardEngine engine(ec);
  ingest_all(engine);

  core::FleetRuntime ref(engine_config(dir, 1, &model, nullptr).runtime);
  std::size_t alarmed = 0;
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const std::size_t i = ref.fleet().add_drive(serial_of(d));
    (void)ref.fleet().ingest_drive(i, batch_for_drive(d, 0, kHours).samples);
    const core::DriveVoteState& want = ref.fleet().state(i);
    const QueryResponse got = engine.query(serial_of(d));
    EXPECT_TRUE(got.known) << serial_of(d);
    EXPECT_EQ(got.alarmed, want.alarmed()) << serial_of(d);
    EXPECT_EQ(got.alarm_hour, want.alarm_hour()) << serial_of(d);
    EXPECT_EQ(got.samples_seen, want.samples_seen()) << serial_of(d);
    alarmed += want.alarmed() ? 1 : 0;
  }
  // Some drives alarm and some do not, so the states tell models apart.
  EXPECT_GT(alarmed, 0u);
  EXPECT_LT(alarmed, kDrives);
}

TEST_F(ServeTest, EngineServesAForestModelFile) {
  forest::ForestConfig fc;
  fc.n_trees = 9;
  forest::RandomForest rf;
  rf.fit(two_feature_matrix(), tree::Task::kClassification, fc);
  const auto model = core::make_forest_scorer(rf);
  const std::string path = (base_dir_ / "forest.model").string();
  core::save_scorer_file(*model, path);
  expect_engine_matches_in_memory(base_dir_, path, *model);
}

TEST_F(ServeTest, EngineServesATreeModelFile) {
  tree::DecisionTree ct;
  ct.fit(two_feature_matrix(), tree::Task::kClassification, {});
  const auto model = core::make_tree_scorer(ct);
  const std::string path = (base_dir_ / "ct.tree").string();
  core::save_scorer_file(*model, path);
  expect_engine_matches_in_memory(base_dir_, path, *model);
}

// ---------------------------------------------------------------------------
// Server end to end over localhost

TEST_F(ServeTest, ServerEndToEnd) {
  obs::Registry reg;
  ShardEngine engine(engine_config(base_dir_ / "s", 2, &scorer_, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client;
  client.connect("127.0.0.1", server.port());
  IngestResponse total;
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const auto r = client.ingest(batch_for_drive(d, 0, kHours));
    total.accepted += r.accepted;
    EXPECT_FALSE(r.degraded);
  }
  EXPECT_EQ(total.accepted, static_cast<std::uint64_t>(kDrives) * kHours);

  // A mixed batch is partitioned across shards and merged back.
  IngestBatch none;
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    none.serials.push_back(serial_of(d));
    none.samples.push_back(sample_for(d, 0));  // all stale by now
  }
  const auto again = client.ingest(none);
  EXPECT_EQ(again.accepted, 0u);
  EXPECT_EQ(again.stale, static_cast<std::uint64_t>(kDrives));

  const auto q = client.query(serial_of(0));
  EXPECT_TRUE(q.known);
  EXPECT_EQ(q.last_hour, kHours - 1);
  EXPECT_FALSE(client.query("missing").known);

  const auto st = client.stats();
  EXPECT_EQ(st.drives, kDrives);
  EXPECT_EQ(st.samples, static_cast<std::uint64_t>(kDrives) * kHours);
  EXPECT_GT(st.alarms, 0u);

  // The Prometheus scrape shares the port with the wire protocol.
  const std::string metrics =
      Client::http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(metrics.find("hdd_serve_ingest_samples_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE hdd_serve_requests_total counter"),
            std::string::npos);
  EXPECT_EQ(Client::http_get("127.0.0.1", server.port(), "/healthz"), "ok\n");
  EXPECT_THROW(Client::http_get("127.0.0.1", server.port(), "/nope"),
               DataError);

  server.stop();

  // The daemon sealed on stop; a fresh engine resumes the same state.
  ShardEngine resumed(engine_config(base_dir_ / "s", 2, &scorer_, nullptr));
  resumed.resume();
  EXPECT_EQ(resumed.stats().samples,
            static_cast<std::uint64_t>(kDrives) * kHours);
  EXPECT_EQ(resumed.stats().alarms, st.alarms);
}

TEST_F(ServeTest, RunOnShardRethrowsTaskErrors) {
  obs::Registry reg;
  ShardEngine engine(engine_config(base_dir_ / "s", 2, &scorer_, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  // A store error inside a task reaches the caller instead of escaping
  // the shard worker thread.
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    EXPECT_THROW((void)server.run_on_shard(
                     k, [] { throw DataError("injected store error"); }),
                 DataError)
        << "shard " << k;
  }

  // Both workers survived: every shard still runs tasks and serves ingest.
  bool ran = false;
  EXPECT_TRUE(server.run_on_shard(1, [&ran] { ran = true; }));
  EXPECT_TRUE(ran);
  Client client;
  client.connect("127.0.0.1", server.port());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const auto r = client.ingest(batch_for_drive(d, 0, kHours));
    EXPECT_EQ(r.accepted, static_cast<std::uint64_t>(kHours));
  }
  EXPECT_EQ(client.stats().samples,
            static_cast<std::uint64_t>(kDrives) * kHours);
  server.stop();
}

TEST_F(ServeTest, ServerRejectsMalformedFrame) {
  ShardEngine engine(engine_config(base_dir_ / "s", 1, &scorer_, nullptr));
  obs::Registry reg;
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  // A valid frame whose payload is not a request: error response + close.
  const std::string reply = client.roundtrip(frame_payload("\x7fgarbage"));
  EXPECT_EQ(decode_status(reply), Status::kBadRequest);
  server.stop();
}

TEST_F(ServeTest, ServerMaxConnsRejectsWithCleanErrorFrame) {
  ShardEngine engine(engine_config(base_dir_ / "s", 1, &scorer_, nullptr));
  obs::Registry reg;
  ServeOptions so;
  so.metrics = &reg;
  so.max_conns = 1;
  Server server(engine, so);
  server.start();

  Client first;
  first.connect("127.0.0.1", server.port());
  // Prove the slot is actually held by a served connection.
  EXPECT_EQ(first.ingest(batch_for_drive(0, 0, 4)).accepted, 4u);

  // The second connection is answered with an error frame, then closed —
  // not silently dropped.
  Client second;
  second.connect("127.0.0.1", server.port());
  const std::string reply =
      second.roundtrip(frame_payload(encode_stats_request()));
  EXPECT_EQ(decode_status(reply), Status::kError);
  EXPECT_EQ(reg.counter("hdd_serve_connections_rejected_total", "").value(),
            1u);

  // The served connection keeps working throughout.
  EXPECT_EQ(first.ingest(batch_for_drive(0, 4, 8)).accepted, 4u);
  server.stop();
}

TEST_F(ServeTest, ServerIdleTimeoutClosesStaleConnections) {
  ShardEngine engine(engine_config(base_dir_ / "s", 1, &scorer_, nullptr));
  obs::Registry reg;
  ServeOptions so;
  so.metrics = &reg;
  so.idle_timeout_ms = 50;
  Server server(engine, so);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ingest(batch_for_drive(0, 0, 4)).accepted, 4u);
  // Go idle past the timeout: the server reaps the connection (counted),
  // and the next request on it fails instead of hanging.
  const auto& reaped =
      reg.counter("hdd_serve_connections_rejected_total", "");
  for (int i = 0; i < 100 && reaped.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(reaped.value(), 1u);
  EXPECT_THROW((void)client.roundtrip(frame_payload(encode_stats_request())),
               DataError);

  // A fresh connection still gets served.
  Client again;
  again.connect("127.0.0.1", server.port());
  EXPECT_EQ(again.stats().samples, 4u);
  server.stop();
}

TEST_F(ServeTest, ServerShutdownOpStopsTheDaemon) {
  ShardEngine engine(engine_config(base_dir_ / "s", 1, &scorer_, nullptr));
  obs::Registry reg;
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.ingest(batch_for_drive(0, 0, 4));
  client.shutdown_server();
  server.wait();  // returns because the wire op latched the shutdown flag
  EXPECT_TRUE(io::shutdown_requested());
}

// Concurrent ingest into a live server, killed by an injected crash point,
// restarted, resumed, topped up: the final alarm state must be
// byte-identical to an uninterrupted run. Journal-before-score makes this
// exact — a sample is scored only once journaled, so resume + idempotent
// re-send always converges on the fault-free outcome.
TEST_F(ServeTest, ConcurrentIngestKillRestartResume) {
  // Fault-free reference.
  std::vector<Outcome> expected;
  {
    ShardEngine ref(engine_config(base_dir_ / "ref", 2, &scorer_, nullptr));
    ingest_all(ref);
    expected = outcomes(ref);
  }

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const fs::path dir = base_dir_ / ("s" + std::to_string(seed));
    io::FaultPlan plan;
    plan.seed = seed;
    plan.crash_at_op = 40 * seed;  // progressively later kills
    io::FaultEnv fenv(io::Env::posix(), plan);
    try {
      auto ec = engine_config(dir, 2, &scorer_, nullptr);
      ec.runtime.store.env = &fenv;
      ShardEngine engine(ec);
      Server server(engine, {});
      server.start();

      // Two clients ingest disjoint drive sets concurrently, in chunks, so
      // the crash lands mid-stream under real cross-connection load.
      auto client_run = [&](std::uint32_t d0) {
        try {
          Client client;
          client.connect("127.0.0.1", server.port());
          for (std::int64_t h = 0; h < kHours; h += 8) {
            for (std::uint32_t d = d0; d < kDrives; d += 2) {
              client.ingest(batch_for_drive(d, h, h + 8));
            }
          }
        } catch (const std::exception&) {
          // Crashed shard / closed connection: the "process" died.
        }
      };
      std::thread c1(client_run, 0);
      std::thread c2(client_run, 1);
      c1.join();
      c2.join();
      server.stop();
    } catch (const io::CrashPoint&) {
      // Early crash points fire while the engine is still opening its
      // stores, before the server exists: the whole "process" is gone.
    }
    io::reset_shutdown_for_tests();

    // Restart on healthy hardware: recover, resume, re-send everything.
    auto ec = engine_config(dir, 2, &scorer_, nullptr);
    ShardEngine engine(ec);
    engine.resume();
    ingest_all(engine);  // journaled hours are stale-skipped
    EXPECT_EQ(outcomes(engine), expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Request tracing: /debug/trace, /debug/vars and the wire-propagated ids

// Tracing is process-global; scope it to one test so the rest of this
// binary keeps exercising the untraced (default) paths.
struct TracingOn {
  TracingOn() { obs::Tracer::global().set_enabled(true); }
  ~TracingOn() { obs::Tracer::global().set_enabled(false); }
};

TEST_F(ServeTest, DebugTraceServesConnectedSpanTreeForWireIngest) {
  const TracingOn tracing;
  auto ec = engine_config(base_dir_ / "s", 2, &scorer_, nullptr);
  ec.runtime.store.fsync_appends = true;  // journal fsyncs inside requests
  ShardEngine engine(ec);
  Server server(engine, {});
  server.start();
  {
    Client client;
    client.connect("127.0.0.1", server.port());
    const auto r = client.ingest(batch_for_drive(0, 0, kHours));
    EXPECT_EQ(r.accepted, static_cast<std::uint64_t>(kHours));
    EXPECT_TRUE(client.query(serial_of(0)).known);
  }

  // The HTTP endpoint returns well-formed Chrome trace_event JSON that
  // names the whole request path.
  const std::string json =
      Client::http_get("127.0.0.1", server.port(), "/debug/trace?ms=60000");
  EXPECT_TRUE(testjson::json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name :
       {"serve.request", "serve.accept", "wire.parse", "shard.queue_wait",
        "shard.ingest", "fleet.ingest", "store.append", "store.fsync",
        "wire.respond", "shard.query", "client.ingest"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << name << " missing from /debug/trace";
  }
  server.stop();

  // The span tree is connected: a journal fsync recorded on a shard
  // worker walks parent links back to the serve.request root, and the
  // client-side span shares the trace id that rode the wire frame.
  const auto spans = obs::Tracer::global().snapshot(60000);
  std::unordered_map<std::uint64_t, const obs::SpanView*> by_id;
  for (const obs::SpanView& s : spans) by_id[s.span_id] = &s;
  // Walks parent links to the trace root; every hop must resolve and
  // stay inside the same trace.
  const auto root_of = [&](const obs::SpanView& leaf, int& hops) {
    const obs::SpanView* node = &leaf;
    hops = 0;
    while (node->parent_id != 0 && hops < 16) {
      const auto it = by_id.find(node->parent_id);
      if (it == by_id.end() || it->second->trace_id != leaf.trace_id) {
        return static_cast<const obs::SpanView*>(nullptr);
      }
      node = it->second;
      ++hops;
    }
    return node;
  };
  // At least one journal fsync recorded on a shard worker must chain all
  // the way up to a serve.request root (a fsync from store open/recovery
  // roots elsewhere, so search rather than take the first).
  const obs::SpanView* fsync = nullptr;
  int best_hops = 0;
  for (const obs::SpanView& s : spans) {
    if (s.name == nullptr || std::string_view(s.name) != "store.fsync" ||
        s.parent_id == 0) {
      continue;
    }
    int hops = 0;
    const obs::SpanView* root = root_of(s, hops);
    if (root != nullptr && root->name != nullptr &&
        std::string_view(root->name) == "serve.request" &&
        hops > best_hops) {
      fsync = &s;
      best_hops = hops;
    }
  }
  ASSERT_NE(fsync, nullptr)
      << "no store.fsync span chains to a serve.request root";
  // The batch-tail fsync nests under the whole dispatch chain:
  // fsync -> store.append -> fleet.ingest -> shard.ingest -> request.
  EXPECT_GE(best_hops, 3);
  bool client_span_in_same_trace = false;
  for (const obs::SpanView& s : spans) {
    if (s.name != nullptr && std::string_view(s.name) == "client.ingest" &&
        s.trace_id == fsync->trace_id) {
      client_span_in_same_trace = true;
    }
  }
  EXPECT_TRUE(client_span_in_same_trace);
}

TEST_F(ServeTest, DebugVarsReportsBuildAndRuntimeState) {
  ShardEngine engine(engine_config(base_dir_ / "s", 2, &scorer_, nullptr));
  Server server(engine, {});
  server.start();
  const std::string vars =
      Client::http_get("127.0.0.1", server.port(), "/debug/vars");
  EXPECT_TRUE(testjson::json_valid(vars)) << vars;
  EXPECT_NE(vars.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(vars.find("\"model_generation\":0"), std::string::npos);
  EXPECT_NE(vars.find("\"uptime_ms\""), std::string::npos);
  EXPECT_NE(vars.find("\"tracing\":0"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace hdd::serve
