// fleetbench — the production-configuration fleet benchmark.
//
// One process builds the daemon's production configuration in-process
// (stat13 features, a CT or 40-tree forest trained from the simulated
// fleet, the journal on, 2 shards, the metrics registry and the flight
// recorder enabled as `hddpredict serve` enables them), drives it with a
// seeded load generator over loopback, checks every output against an
// in-memory reference, and prints one JSON result line. Between its rounds
// of traffic a run also times forced UpdatePipeline retrain cycles and
// batched holdout scoring, so every workload reports their costs too.
//
//   fleetbench --workload live_ct|backfill_forest --seed N
//              --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, which come from the benchmark timing its own calls into each
// layer's public functions on the workload's inputs. The daemon runs
// in-process because FleetRuntime loads only trees from a model path, so
// the CLI daemon cannot serve a forest.
//
// Models and the holdout fleet use fixed seeds, so model quality is
// identical in every run; --seed varies the traffic (which drives, which
// weeks of their telemetry, which drives are queried).
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "core/scorer.h"
#include "core/swappable.h"
#include "data/split.h"
#include "data/training.h"
#include "eval/detection.h"
#include "guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "serve/wire.h"
#include "sim/generator.h"
#include "sim/profile.h"
#include "smart/features.h"
#include "stats.h"
#include "store/telemetry_store.h"

namespace {

using namespace hdd;
namespace fs = std::filesystem;
namespace pb = perfbench;

// ---------------------------------------------------------------------------
// Clocks and process counters

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A CPU clock in seconds: the process's, or another thread's (0 once that
// thread has exited).
double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

// Resident set size in MiB, after handing freed heap back to the OS so the
// figure is live memory, not allocator slack.
double rss_mb() {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmRSS in /proc/self/status");
}

void sleep_until(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void note(const std::string& s) { std::cout << "# " << s << '\n' << std::flush; }

// ---------------------------------------------------------------------------
// Workloads

constexpr std::int64_t kWeek = 168;  // hours of journal pre-populated

// Drives in the retrain store. UpdatePipeline's window read scans every
// segment holding a drive once per drive, so its cost grows with the square
// of this; 256 drives keeps one cycle around a second.
constexpr std::size_t kRetrainDrives = 256;

struct Workload {
  std::size_t drives = 0;    // fleet size
  std::size_t per_req = 0;   // drives per ingest request
  int hours_per_req = 0;     // consecutive hours per drive per request
  pb::ModelKind serving = pb::ModelKind::kCt;
  // Open-loop arrival rate in samples/s of ingest, fixed once from the
  // capacity of the commit that introduced the benchmark and not re-tuned.
  // It sits at a third of that capacity or less, not half: other tenants
  // of a shared machine can halve its speed for seconds, and near capacity
  // the open loop would then saturate and measure the backlog instead.
  double open_samples_per_s = 0.0;
  // live_ct only: a third connection reads back one random drive's state
  // per open-loop ingest request, as a dashboard following each hourly
  // slice a collector sends. Its rate is the request rate.
  bool queries = false;
  // Interleaved closed/open rounds per run.
  int rounds = 0;
};

Workload workload_named(const std::string& name) {
  Workload w;
  if (name == "live_ct") {
    w.drives = 2048;
    w.per_req = 512;
    w.hours_per_req = 1;
    w.serving = pb::ModelKind::kCt;
    w.open_samples_per_s = 36000;
    w.queries = true;
    w.rounds = 10;
  } else if (name == "backfill_forest") {
    w.drives = 512;
    w.per_req = 64;
    w.hours_per_req = 168;
    w.serving = pb::ModelKind::kForest40;
    w.open_samples_per_s = 250000;
    w.rounds = 10;
  } else {
    throw std::invalid_argument("unknown workload \"" + name +
                                "\" (live_ct, backfill_forest)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Models and holdout: fixed seeds, identical in every run

constexpr std::uint64_t kModelFleetSeed = 42;
constexpr std::uint64_t kHoldoutSeed = 4242;

sim::FleetConfig w_fleet(std::uint64_t seed, std::size_t good,
                         std::size_t failed, int weeks) {
  sim::FleetConfig fc;
  fc.seed = seed;
  fc.observation_weeks = weeks;
  fc.families.push_back({sim::family_w_profile(), good, failed});
  return fc;
}

struct Models {
  core::PredictorConfig ct_cfg = core::preset("ct");
  core::PredictorConfig forest_cfg = core::preset("forest");
  std::shared_ptr<const core::SampleScorer> ct;
  std::shared_ptr<const core::SampleScorer> forest;
  // The labeled failure archive every retrain shares.
  std::vector<smart::DriveRecord> failed_pool;

  const core::SampleScorer& get(pb::ModelKind k) const {
    return k == pb::ModelKind::kCt ? *ct : *forest;
  }
};

Models train_models() {
  Models m;
  // Family W at a fifth of the paper's size. Training draws only a few
  // samples per good drive, so good drives keep just the last four of the
  // eight observed weeks: half the memory, and drives as old as the
  // holdout's test period.
  const auto ds = sim::generate_fleet_window(
      w_fleet(kModelFleetSeed, 4500, 90, 8), 4, 8);
  const auto split = data::split_dataset(ds, {});
  for (auto* cfg : {&m.ct_cfg, &m.forest_cfg}) {
    const auto matrix = data::build_training_matrix(ds, split, cfg->training);
    std::shared_ptr<const core::SampleScorer> s =
        core::fit_scorer(*cfg, matrix);
    (cfg == &m.ct_cfg ? m.ct : m.forest) = std::move(s);
  }
  for (const auto& d : ds.drives) {
    if (d.failed) m.failed_pool.push_back(d);
  }
  pb::require_production_config(*m.ct, pb::ModelKind::kCt, true);
  pb::require_production_config(*m.forest, pb::ModelKind::kForest40, true);
  return m;
}

// A fleet no model trained on. As in the paper's protocol (Section V-A1)
// a good drive's test period is the later 30% of its record; every failed
// drive is test data.
struct Holdout {
  data::DriveDataset ds;
  data::DatasetSplit split;
};

std::size_t good_test_begin(const smart::DriveRecord& d) {
  return d.samples.size() * 7 / 10;
}
std::size_t test_begin(const smart::DriveRecord& d) {
  return d.failed ? 0 : good_test_begin(d);
}

Holdout make_holdout() {
  Holdout h;
  h.ds = sim::generate_fleet(w_fleet(kHoldoutSeed, 1500, 120, 8));
  for (std::size_t i = 0; i < h.ds.drives.size(); ++i) {
    if (h.ds.drives[i].failed) {
      h.split.test_failed.push_back(i);
    } else {
      h.split.good_drives.push_back(i);
      h.split.good_test_begin.push_back(good_test_begin(h.ds.drives[i]));
    }
  }
  return h;
}

core::FleetScorerConfig fleet_config(const core::PredictorConfig& cfg) {
  core::FleetScorerConfig fc;
  fc.features = cfg.training.features;
  fc.vote = cfg.vote;
  return fc;
}

// ---------------------------------------------------------------------------
// Traffic: one week of simulated hourly telemetry per drive, replayed
// cyclically with advancing hours so every sample the daemon sees is fresh.

struct Fleet {
  std::vector<std::string> serials;
  std::vector<std::vector<smart::Sample>> week;  // kWeek samples per drive

  smart::Sample at(std::size_t d, std::int64_t hour) const {
    smart::Sample s = week[d][static_cast<std::size_t>(hour % kWeek)];
    s.hour = hour;
    return s;
  }
};

Fleet make_fleet(std::size_t drives, std::uint64_t seed) {
  const sim::TraceGenerator gen(sim::family_w_profile(), seed, 0x5eed);
  Rng rng(seed);
  Fleet f;
  f.serials.resize(drives);
  f.week.resize(drives);
  for (std::size_t d = 0; d < drives; ++d) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "drv%05zu", d);  // short: no heap string
    f.serials[d] = buf;
    // About 5% of drives carry the week before a failure, so the voting
    // state and alarms the correctness gate compares are not all idle.
    const bool failed = rng.uniform() < 0.05;
    const auto latent = gen.make_latent(d, failed, 8 * kWeek);
    std::int64_t from = static_cast<std::int64_t>(rng.uniform() * 6 * kWeek);
    if (failed) from = std::max<std::int64_t>(0, latent.fail_hour - kWeek + 1);
    f.week[d].reserve(kWeek);
    for (std::int64_t h = 0; h < kWeek; ++h) {
      f.week[d].push_back(gen.sample_at(latent, from + h));
    }
  }
  return f;
}

// Request i covers group i % G (per_req consecutive drives) for the
// block i / G of hours_per_req hours after the pre-populated week,
// drive-major. Two connections split the groups by parity, so each drive's
// hours arrive in order.
struct Traffic {
  const Fleet* fleet = nullptr;
  std::size_t per_req = 0;
  int hours = 0;

  std::size_t groups() const { return fleet->serials.size() / per_req; }
  std::size_t samples_per_req() const {
    return per_req * static_cast<std::size_t>(hours);
  }
  serve::IngestBatch request(std::uint64_t i) const {
    const std::size_t g = i % groups();
    const auto b = static_cast<std::int64_t>(i / groups());
    serve::IngestBatch batch;
    batch.serials.reserve(samples_per_req());
    batch.samples.reserve(samples_per_req());
    for (std::size_t d = g * per_req; d < (g + 1) * per_req; ++d) {
      for (int h = 0; h < hours; ++h) {
        batch.serials.push_back(fleet->serials[d]);
        batch.samples.push_back(fleet->at(d, kWeek + b * hours + h));
      }
    }
    return batch;
  }
};

// The pre-populated week of drives [0, n) as one drive-major batch.
serve::IngestBatch week_batch(const Fleet& f, std::size_t lo, std::size_t hi) {
  serve::IngestBatch b;
  for (std::size_t d = lo; d < hi; ++d) {
    for (std::int64_t h = 0; h < kWeek; ++h) {
      b.serials.push_back(f.serials[d]);
      b.samples.push_back(f.at(d, h));
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Production daemon

constexpr std::size_t kShards = 2;

void enable_production_obs(const fs::path& workdir) {
  // As cmd_serve: the registry runs hot, the flight recorder is on.
  obs::Registry::global().set_enabled(true);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_flight_dir(workdir.string());
  tracer.set_slow_threshold_ns(50ull * 1'000'000ull);
  tracer.set_enabled(true);
  obs::install_flight_signal_handlers();
}

serve::ShardEngineConfig engine_config(const fs::path& dir,
                                       const core::SampleScorer& model,
                                       const Models& models) {
  serve::ShardEngineConfig ec;
  ec.dir = dir.string();
  ec.shards = kShards;
  ec.runtime.scorer = &model;
  ec.runtime.vote = models.ct_cfg.vote;  // voters 11, as serve's default
  ec.runtime.quarantine = core::QuarantinePolicy::kNonFinite;
  ec.runtime.hot_swappable = true;  // serve always runs swappable
  return ec;
}

void require_journaled(serve::ShardEngine& e, pb::ModelKind kind) {
  for (std::size_t k = 0; k < e.shard_count(); ++k) {
    pb::require_production_config(e.shard(k).scorer(), kind,
                                  e.shard(k).has_store());
  }
  if (e.shard_count() != kShards) {
    throw std::runtime_error("not the production configuration: " +
                             std::to_string(e.shard_count()) + " shard(s)");
  }
}

// Splits a batch by shard, order kept, as the server does.
std::vector<serve::IngestBatch> by_shard(const serve::ShardEngine& e,
                                         const serve::IngestBatch& b) {
  std::vector<serve::IngestBatch> out(e.shard_count());
  for (std::size_t i = 0; i < b.samples.size(); ++i) {
    auto& o = out[e.shard_of(b.serials[i])];
    o.serials.push_back(b.serials[i]);
    o.samples.push_back(b.samples[i]);
  }
  return out;
}

// Journals one week of hourly history for every drive of `f` into the
// engine layout `ec` names.
void prepopulate(const Fleet& f, const serve::ShardEngineConfig& ec) {
  serve::ShardEngine e(ec);
  for (std::size_t lo = 0; lo < f.serials.size(); lo += 64) {
    const auto parts =
        by_shard(e, week_batch(f, lo, std::min(lo + 64, f.serials.size())));
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (!parts[k].samples.empty()) (void)e.ingest(k, parts[k]);
    }
  }
  e.seal();
}

struct Daemon {
  std::unique_ptr<serve::ShardEngine> engine;
  std::unique_ptr<serve::Server> server;
  double open_s = 0.0;    // engine construction (store open + recovery)
  double resume_s = 0.0;  // ShardEngine::resume

  void stop() {
    if (server) server->stop();
    server.reset();
    engine.reset();
  }
};

// A restart on the journal: engine construction, resume, Server::start.
// Returns the set-up seconds.
double restart(Daemon& d, const serve::ShardEngineConfig& ec) {
  d.stop();
  const double t0 = now_s();
  d.engine = std::make_unique<serve::ShardEngine>(ec);
  const double t1 = now_s();
  d.engine->resume();
  const double t2 = now_s();
  d.server = std::make_unique<serve::Server>(*d.engine, serve::ServeOptions{});
  d.server->start();
  const double t3 = now_s();
  d.open_s = t1 - t0;
  d.resume_s = t2 - t1;
  return t3 - t0;
}

// ---------------------------------------------------------------------------
// Load generation

struct ConnState {
  std::uint64_t next = 0;  // requests this connection has sent so far
};

struct LoadResult {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<pb::Timed> timed;  // open loop only
  std::vector<pb::Timed> queries;
  // Closed loop only: accepted samples, wall seconds and the daemon's CPU
  // seconds (process CPU minus the generator threads' own) of the phase.
  std::uint64_t samples = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

bool ingest_ok(const serve::IngestResponse& r, std::size_t n) {
  return r.accepted == n && r.stale == 0 && r.quarantined == 0 &&
         r.journal_failed == 0 && !r.degraded;
}

// Connection c's m-th request is global request c + 2m.
std::uint64_t global_index(int c, std::uint64_t m) {
  return static_cast<std::uint64_t>(c) + 2 * m;
}

LoadResult closed_loop(int port, const Traffic& t, double seconds,
                       ConnState conns[2]) {
  LoadResult res;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reqs{0}, failed{0}, samples{0};
  std::vector<std::thread> th;
  for (int c = 0; c < 2; ++c) {
    th.emplace_back([&, c] {
      serve::Client client;
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception&) {
        failed.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const auto batch = t.request(global_index(c, conns[c].next));
        bool ok = false;
        try {
          ok = ingest_ok(client.ingest(batch), batch.samples.size());
        } catch (const std::exception&) {
          ok = false;
        }
        ++conns[c].next;
        reqs.fetch_add(1);
        if (ok) {
          samples.fetch_add(batch.samples.size());
        } else {
          failed.fetch_add(1);
          break;  // the connection is not reusable after an error
        }
      }
    });
  }
  clockid_t gen_clock[2];
  for (int c = 0; c < 2; ++c) {
    pthread_getcpuclockid(th[c].native_handle(), &gen_clock[c]);
  }
  // The generator threads' clocks read 0 once they exit, so both ends of
  // the phase are read while they run.
  const auto daemon_cpu = [&] {
    return process_cpu_s() - clock_s(gen_clock[0]) - clock_s(gen_clock[1]);
  };
  const double t0 = now_s();
  const double c0 = daemon_cpu();
  const std::uint64_t n0 = samples.load();
  sleep_until(t0 + seconds);
  const std::uint64_t n1 = samples.load();
  res.cpu_s = daemon_cpu() - c0;
  res.wall_s = now_s() - t0;
  res.samples = n1 - n0;
  stop = true;
  for (auto& x : th) x.join();
  res.requests = reqs;
  res.failed = failed;
  return res;
}

// Open loop: request j is due at t0 + j * samples_per_req / rate, sent on
// connection j % 2 as that connection's next request; with `queries` a
// third connection sends one query per request on the same schedule.
// Latency counts from the due time.
LoadResult open_loop(int port, const Traffic& t, double seconds,
                     double samples_per_s, bool queries_on,
                     ConnState conns[2], std::uint64_t seed) {
  LoadResult res;
  const double gap = static_cast<double>(t.samples_per_req()) / samples_per_s;
  const auto n = static_cast<std::uint64_t>(seconds / gap);
  // A generator more than this far behind its schedule stops: the rest of
  // its requests count as failed (they missed every latency limit).
  constexpr double kGiveUp = 5.0;
  std::vector<pb::Timed> timed(n);
  const double t0 = now_s() + 0.01;
  std::vector<std::thread> th;
  for (int c = 0; c < 2; ++c) {
    th.emplace_back([&, c] {
      serve::Client client;
      bool broken = false;  // a failed connection fails every later request
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception&) {
        broken = true;
      }
      for (std::uint64_t j = static_cast<std::uint64_t>(c); j < n; j += 2) {
        pb::Timed& r = timed[j];
        r.due = t0 + static_cast<double>(j) * gap;
        if (broken || now_s() - r.due > kGiveUp) {
          r.ok = false;
          r.sent = r.done = r.due;
          continue;
        }
        const auto batch = t.request(global_index(c, conns[c].next));
        sleep_until(r.due);
        r.sent = now_s();
        try {
          r.ok = ingest_ok(client.ingest(batch), batch.samples.size());
        } catch (const std::exception&) {
          r.ok = false;
        }
        r.done = now_s();
        ++conns[c].next;
        broken = !r.ok;
      }
    });
  }
  std::vector<pb::Timed> queries;
  if (queries_on) {
    th.emplace_back([&] {
      serve::Client client;
      bool broken = false;
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception&) {
        broken = true;
      }
      Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
      queries.resize(n);
      for (std::uint64_t q = 0; q < n; ++q) {
        pb::Timed& r = queries[q];
        r.due = t0 + static_cast<double>(q) * gap;
        const std::size_t d = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(t.fleet->serials.size()));
        if (broken || now_s() - r.due > kGiveUp) {
          r.ok = false;
          continue;
        }
        sleep_until(r.due);
        r.sent = now_s();
        try {
          r.ok = client.query(t.fleet->serials[d]).known;
        } catch (const std::exception&) {
          r.ok = false;
        }
        r.done = now_s();
        broken = !r.ok;
      }
    });
  }
  for (auto& x : th) x.join();
  for (const auto& r : timed) {
    ++res.requests;
    res.failed += r.ok ? 0 : 1;
  }
  res.timed = std::move(timed);
  res.queries = std::move(queries);
  return res;
}

// ---------------------------------------------------------------------------
// Correctness: every drive's vote state, read back over the wire, must
// equal an unjournaled in-memory FleetScorer fed the same samples.

// Hours drive d has received: the week plus every request its group got.
std::vector<std::int64_t> hours_sent(const Traffic& t, const ConnState conns[2]) {
  std::vector<std::int64_t> blocks(t.groups(), 0);
  for (int c = 0; c < 2; ++c) {
    for (std::uint64_t m = 0; m < conns[c].next; ++m) {
      const std::uint64_t i = global_index(c, m);
      const std::size_t g = i % t.groups();
      blocks[g] = std::max<std::int64_t>(
          blocks[g], static_cast<std::int64_t>(i / t.groups()) + 1);
    }
  }
  std::vector<std::int64_t> hours(t.fleet->serials.size());
  for (std::size_t d = 0; d < hours.size(); ++d) {
    hours[d] = kWeek + blocks[d / t.per_req] * t.hours;
  }
  return hours;
}

std::vector<serve::QueryResponse> reference_states(
    const Fleet& f, const std::vector<std::int64_t>& hours,
    const core::SampleScorer& model, const core::PredictorConfig& cfg) {
  const std::size_t n = f.serials.size();
  std::vector<serve::QueryResponse> out(n);
  // Drives d = w, w + kThreads, ... on worker w, each with its own scorer.
  const auto slice = [&](std::size_t w, std::size_t stride) {
    core::FleetScorerConfig fc = fleet_config(cfg);
    fc.quarantine = core::QuarantinePolicy::kNonFinite;
    core::FleetScorer ref(model, fc);
    std::vector<smart::Sample> buf;
    for (std::size_t d = w; d < n; d += stride) {
      const std::size_t i = ref.add_drive(f.serials[d]);
      for (std::int64_t lo = 0; lo < hours[d]; lo += 4096) {
        buf.clear();
        for (std::int64_t h = lo; h < std::min(hours[d], lo + 4096); ++h) {
          buf.push_back(f.at(d, h));
        }
        (void)ref.ingest_drive(i, buf);
      }
      const auto& s = ref.state(i);
      out[d].known = true;
      out[d].alarmed = s.alarmed();
      out[d].alarm_hour = s.alarm_hour();
      out[d].samples_seen = s.samples_seen();
      out[d].last_hour = hours[d] - 1;
    }
  };
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> th;
  std::exception_ptr error[kThreads];
  for (std::size_t w = 0; w < kThreads; ++w) {
    th.emplace_back([&, w] {
      try {
        slice(w, kThreads);
      } catch (...) {
        error[w] = std::current_exception();
      }
    });
  }
  for (auto& x : th) x.join();
  for (const auto& e : error) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

std::size_t check_against_reference(int port, const Fleet& f,
                                    const std::vector<std::int64_t>& hours,
                                    const core::SampleScorer& model,
                                    const core::PredictorConfig& cfg,
                                    std::size_t& alarms) {
  const auto ref = reference_states(f, hours, model, cfg);
  serve::Client client;
  client.connect("127.0.0.1", port);
  std::size_t bad = 0;
  alarms = 0;
  for (std::size_t d = 0; d < f.serials.size(); ++d) {
    const auto got = client.query(f.serials[d]);
    const auto& want = ref[d];
    alarms += got.alarmed ? 1 : 0;
    if (got.known != want.known || got.alarmed != want.alarmed ||
        got.alarm_hour != want.alarm_hour ||
        got.samples_seen != want.samples_seen ||
        got.last_hour != want.last_hour) {
      if (bad < 5) {
        note("mismatch " + f.serials[d] + ": daemon alarmed=" +
             std::to_string(got.alarmed) + "@" +
             std::to_string(got.alarm_hour) + " seen=" +
             std::to_string(got.samples_seen) + " last=" +
             std::to_string(got.last_hour) + ", reference alarmed=" +
             std::to_string(want.alarmed) + "@" +
             std::to_string(want.alarm_hour) + " seen=" +
             std::to_string(want.samples_seen) + " last=" +
             std::to_string(want.last_hour));
      }
      ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Retrain: forced UpdatePipeline cycles over fresh copies of a store that
// holds the workload's fleet week.

void build_store(const fs::path& dir, const Fleet& f) {
  store::TelemetryStore st(dir.string());
  for (std::size_t d = 0; d < std::min(kRetrainDrives, f.serials.size());
       ++d) {
    const auto id = st.register_drive(f.serials[d]);
    std::vector<smart::Sample> week;
    for (std::int64_t h = 0; h < kWeek; ++h) week.push_back(f.at(d, h));
    st.append_batch(id, week.data(), week.size());
  }
  st.flush();
}

// A copy of a store, made durable before it is timed: otherwise the first
// fsync inside a cycle (the generation record) would also write back
// whatever the copy left dirty, and time the page cache instead.
void fresh_copy(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  for (const auto& e : fs::recursive_directory_iterator(to)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      throw std::runtime_error("cannot sync " + e.path().string());
    }
    ::close(fd);
  }
}

pipeline::PipelineConfig pipeline_config(const core::PredictorConfig& trainer) {
  pipeline::PipelineConfig pc;
  pc.trainer = trainer;
  return pc;
}

// A forced cycle's wall time and its process CPU time: nothing else in the
// process works while it runs (the daemon is idle between rounds), so the
// CPU figure is the cycle's own, fit threads included, and a stretch in
// which other tenants hold the machine's cores stretches only the wall.
struct CycleRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  pipeline::Outcome outcome = pipeline::Outcome::kNone;
};

CycleRun forced_cycle(const fs::path& base, const fs::path& dir,
                      const Models& m, pb::ModelKind kind) {
  fresh_copy(base, dir);
  store::TelemetryStore st(dir.string());
  core::SwappableScorer slot(kind == pb::ModelKind::kCt ? m.ct : m.forest, 0);
  const auto& cfg = kind == pb::ModelKind::kCt ? m.ct_cfg : m.forest_cfg;
  pipeline::UpdatePipeline pipe(slot, st, m.failed_pool, pipeline_config(cfg));
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  const auto r = pipe.run_cycle(/*force=*/true);
  CycleRun out;
  out.cpu_s = process_cpu_s() - c0;
  out.wall_s = now_s() - t0;
  out.outcome = r.outcome;
  if (r.outcome == pipeline::Outcome::kPromoted) {
    pb::require_production_config(*slot.current(), kind, true);
  }
  return out;
}

struct Quality {
  double ct_fdr = 0, ct_far = 0, forest_fdr = 0, forest_far = 0;
  bool operator==(const Quality&) const = default;
};

Quality holdout_quality(const Holdout& h, const Models& m) {
  Quality q;
  const core::FleetScorer ct(*m.ct, fleet_config(m.ct_cfg));
  const auto rc = ct.evaluate(h.ds, h.split);
  const core::FleetScorer fo(*m.forest, fleet_config(m.forest_cfg));
  const auto rf = fo.evaluate(h.ds, h.split);
  q.ct_fdr = 100 * rc.fdr();
  q.ct_far = 100 * rc.far();
  q.forest_fdr = 100 * rf.fdr();
  q.forest_far = 100 * rf.far();
  return q;
}

// The EXPERIMENTS.md bands for the CT on family W (FDR 92-100%, FAR at
// most ~2.4% across Tables III-V and Figures 2 and 5; the forest "matches
// CT"), with a small margin.
bool in_band(double fdr, double far) {
  return fdr >= 90.0 && fdr <= 100.0 && far > 0.0 && far <= 2.5;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run)

// A scorer decorator that scores the first fifth of every batch (rounded
// up) a second time, adding about 20% to predict_batch on the self-test's
// 168-row blocks, the same on every call: the attribution self-test checks
// that the per-layer breakdown puts the added time on the predict row and
// on the rows whose path runs it, and nowhere else.
class SlowedScorer final : public core::SampleScorer {
 public:
  explicit SlowedScorer(const core::SampleScorer& inner) : inner_(inner) {}
  double predict(std::span<const float> x) const override {
    return inner_.predict(x);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    inner_.predict_batch(xs, out);
    if (out.empty()) return;
    const std::size_t rows = (out.size() + 4) / 5;
    const std::size_t width = xs.size() / out.size();
    inner_.predict_batch(xs.first(rows * width), out.first(rows));
  }
  int num_features() const override { return inner_.num_features(); }
  std::string summary() const override { return inner_.summary(); }

 private:
  const core::SampleScorer& inner_;
};

// A 13-feature scorer that costs nothing: every row scores 0. Core ingest
// on it is ingest_drive without its predict child, for the core add-up
// check.
class NullScorer final : public core::SampleScorer {
 public:
  double predict(std::span<const float>) const override { return 0.0; }
  void predict_batch(std::span<const float>,
                     std::span<double> out) const override {
    std::fill(out.begin(), out.end(), 0.0);
  }
  int num_features() const override { return 13; }
  std::string summary() const override { return "null"; }
};

struct LayerTimes {
  // Per request (µs) / per sample (ns), means over the probe requests.
  double encode_us = 0, decode_us = 0, resp_encode_us = 0, engine_us = 0;
  // The slower shard's share: the server runs the shards in parallel, so
  // this, not the sum, is what a request waits for.
  double engine_path_us = 0;
  double store_us = 0, core_us = 0;
  double store_ns = 0, core_ns = 0, bytes_per_sample = 0;
  double core_null_ns = 0;  // core ingest with a zero-cost scorer
  double extract_ns = 0, tree_ns = 0, forest_ns = 0, vote_ns = 0;
  double calls_per_req = 0, samples_per_call = 0;
};

// One model configuration a probe pass times side by side with the others
// on the same requests: the model the engine and core serve, and the
// forest the forest predict row times.
struct Variant {
  const core::SampleScorer* serving = nullptr;
  const core::SampleScorer* forest_row = nullptr;
};

// Times the ingest path layer by layer on the same requests: the encode
// and decode of each frame; ShardEngine::ingest on a journaled 2-shard
// engine; and, separately, its two children — store append_batch +
// flush_to_os per drive run, and FleetScorer::ingest_drive on an
// unjournaled runtime configured as a shard's — plus the grandchildren
// extract, predict and vote, and ingest_drive once more on a zero-cost
// scorer. The engine, its children and the forest row run once per
// variant, next to each other on every request, so the variants' figures
// share the machine's state; the rest runs once, for the first variant.
// All states start from the same pre-populated week.
std::vector<LayerTimes> probe_layers(const fs::path& dir, const Traffic& t,
                                     const std::vector<Variant>& variants,
                                     const core::SampleScorer& tree_model,
                                     const Models& m, std::uint64_t first,
                                     std::size_t k) {
  const Fleet& f = *t.fleet;
  const auto& cfg = m.ct_cfg;  // both presets share features + vote
  const core::FleetScorerConfig fc = fleet_config(cfg);

  fs::remove_all(dir);
  fs::create_directories(dir);
  // One lane per variant, plus one for the zero-cost scorer (no engine).
  struct Lane {
    std::unique_ptr<serve::ShardEngine> engine;
    std::unique_ptr<core::FleetRuntime> core;  // unjournaled, as a shard's
    std::unique_ptr<store::TelemetryStore> store;
    fs::path store_dir;
    std::uint64_t bytes0 = 0;
    double eng = 0, path = 0, resp = 0, sto = 0, cor = 0, fo = 0;
  };
  const NullScorer null_model;
  std::vector<Lane> lanes(variants.size() + 1);
  for (std::size_t v = 0; v < lanes.size(); ++v) {
    const bool null_lane = v == variants.size();
    const core::SampleScorer& model =
        null_lane ? null_model : *variants[v].serving;
    const std::string tag = std::to_string(v);
    const auto ec = engine_config(dir / ("engine-" + tag), model, m);
    if (!null_lane) {
      prepopulate(f, ec);
      lanes[v].engine = std::make_unique<serve::ShardEngine>(ec);
      lanes[v].engine->resume();
    }
    core::FleetRuntimeConfig rc = ec.runtime;
    rc.store_dir.clear();
    lanes[v].core = std::make_unique<core::FleetRuntime>(std::move(rc));
    lanes[v].store_dir = dir / ("store-" + tag);
    lanes[v].store =
        std::make_unique<store::TelemetryStore>(lanes[v].store_dir.string());
  }
  // Drive d is id d in every store and scorer: all register in fleet order.
  std::map<std::string, std::size_t> index;
  for (std::size_t d = 0; d < f.serials.size(); ++d) {
    std::vector<smart::Sample> week;
    for (std::int64_t h = 0; h < kWeek; ++h) week.push_back(f.at(d, h));
    index[f.serials[d]] = d;
    for (auto& lane : lanes) {
      core::FleetScorer& sc = lane.core->fleet();
      if (sc.add_drive(f.serials[d]) != d ||
          lane.store->register_drive(f.serials[d]) != d) {
        throw std::runtime_error("probe ids are not in fleet order");
      }
      (void)sc.ingest_drive(d, week);
      lane.store->append_batch(static_cast<std::uint32_t>(d), week.data(),
                               week.size());
    }
  }
  for (auto& lane : lanes) {
    lane.store->flush();
    lane.bytes0 = dir_bytes(lane.store_dir);
  }

  std::uint64_t samples = 0, calls = 0;
  double enc = 0, dec = 0, ext = 0, tre = 0, vot = 0;
  std::uint64_t rows = 0;
  // FleetScorer's history rule: 4x the largest change interval, >= 24 h.
  int history = 24;
  for (const auto& spec : cfg.training.features.specs) {
    history = std::max(history, 4 * spec.change_interval_hours);
  }
  std::vector<core::DriveVoteState> votes;
  for (std::uint64_t r = 0; r < k; ++r) {
    const auto batch = t.request(first + 2 * r);
    samples += batch.samples.size();

    double a = now_s();
    const std::string framed =
        serve::frame_payload(serve::encode_ingest_request(batch));
    double b = now_s();
    enc += b - a;
    serve::FrameParser parser;
    parser.feed(framed);
    std::string payload;
    if (parser.next(payload) != serve::FrameParser::Result::kFrame) {
      throw std::runtime_error("probe frame did not parse");
    }
    const auto req = serve::decode_request(payload);
    a = now_s();
    dec += a - b;
    if (!req) throw std::runtime_error("probe request did not decode");

    const auto parts = by_shard(*lanes[0].engine, req->ingest);
    const auto engine_pass = [&](Lane& lane) {
      serve::IngestResponse total;
      double slowest = 0.0;
      for (std::size_t s = 0; s < parts.size(); ++s) {
        if (parts[s].samples.empty()) continue;
        const double s0 = now_s();
        const auto x = lane.engine->ingest(s, parts[s]);
        const double s1 = now_s();
        lane.eng += s1 - s0;
        slowest = std::max(slowest, s1 - s0);
        total.accepted += x.accepted;
      }
      lane.path += slowest;
      if (total.accepted != batch.samples.size()) {
        throw std::runtime_error("probe engine did not accept the request");
      }
      const double t0 = now_s();
      const std::string rsp = serve::frame_payload(
          serve::encode_ingest_response(total));
      lane.resp += now_s() - t0;
    };

    // Drive runs, as ShardEngine::ingest forms them.
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (std::size_t i = 0; i < batch.samples.size();) {
      std::size_t j = i + 1;
      while (j < batch.samples.size() && batch.serials[j] == batch.serials[i]) {
        ++j;
      }
      runs.emplace_back(i, j);
      i = j;
    }
    calls += runs.size();
    // Each run's drive, looked up before the clocks start.
    std::vector<std::size_t> run_drive;
    for (const auto& run : runs) run_drive.push_back(index[batch.serials[run.first]]);
    // The engine's two children, store append + flush_to_os and core
    // ingest, drive by drive in the order the engine issues them, each
    // timed on its own.
    const auto children = [&](Lane& lane) {
      core::FleetScorer& scorer = lane.core->fleet();
      double t0 = now_s();
      for (std::size_t x = 0; x < runs.size(); ++x) {
        const auto [i, j] = runs[x];
        const auto d = run_drive[x];
        lane.store->append_batch(static_cast<std::uint32_t>(d),
                                 batch.samples.data() + i, j - i);
        lane.store->flush_to_os();
        const double t1 = now_s();
        lane.sto += t1 - t0;
        (void)scorer.ingest_drive(
            d, std::span<const smart::Sample>(batch.samples.data() + i, j - i));
        t0 = now_s();
        lane.cor += t0 - t1;
      }
    };
    // Every lane's engine and children; the order reverses on every other
    // request, so no lane always finds the request's samples in cache.
    std::vector<std::function<void()>> steps;
    for (std::size_t v = 0; v < lanes.size(); ++v) {
      if (lanes[v].engine) steps.push_back([&, v] { engine_pass(lanes[v]); });
      steps.push_back([&, v] { children(lanes[v]); });
    }
    if (r % 2 == 1) std::reverse(steps.begin(), steps.end());
    for (const auto& step : steps) step();

    // Grandchildren on the same samples: each run's history window plus
    // the run, one row extracted per sample (ingest extracts one row at a
    // time), predicted in the blocks ingest uses, then voted.
    std::vector<smart::DriveRecord> recs(runs.size());
    std::vector<std::size_t> begin(runs.size());
    for (std::size_t r2 = 0; r2 < runs.size(); ++r2) {
      const auto [i, j] = runs[r2];
      const std::size_t d = run_drive[r2];
      const std::int64_t h0 = batch.samples[i].hour;
      for (std::int64_t h = std::max<std::int64_t>(0, h0 - history); h < h0;
           ++h) {
        recs[r2].samples.push_back(f.at(d, h));
      }
      begin[r2] = recs[r2].samples.size();
      for (std::size_t x = i; x < j; ++x) {
        recs[r2].samples.push_back(batch.samples[x]);
      }
    }
    // Each grandchild is timed three times on the request, fastest kept:
    // they take microseconds, where a passing stall is a large share.
    constexpr int kReps = 3;
    std::vector<float> xs;
    double best = 1e9;
    for (int rep = 0; rep < kReps; ++rep) {
      xs.clear();
      b = now_s();
      for (std::size_t r2 = 0; r2 < runs.size(); ++r2) {
        for (std::size_t p = begin[r2]; p < recs[r2].samples.size(); ++p) {
          smart::extract_features_block(recs[r2], p, p + 1,
                                        cfg.training.features, xs);
        }
      }
      best = std::min(best, now_s() - b);
    }
    ext += best;
    const std::size_t nf = 13;
    std::vector<double> out(batch.samples.size());
    const auto predict_row = [&](const core::SampleScorer& model) {
      double fastest = 1e9;
      for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = now_s();
        std::size_t row = 0;
        for (const auto& [i, j] : runs) {
          for (std::size_t lo = i; lo < j; lo += fc.block_rows) {
            const std::size_t hi = std::min(j, lo + fc.block_rows);
            model.predict_batch(
                std::span<const float>(xs.data() + row * nf, (hi - lo) * nf),
                std::span<double>(out.data() + row, hi - lo));
            row += hi - lo;
          }
        }
        fastest = std::min(fastest, now_s() - t0);
      }
      return fastest;
    };
    tre += predict_row(tree_model);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      lanes[v].fo += predict_row(*variants[v].forest_row);
    }
    rows += batch.samples.size();
    // Vote pushes on the first variant's outputs.
    variants[0].serving->predict_batch(xs, out);
    if (votes.size() != runs.size()) {
      votes.assign(runs.size(), core::DriveVoteState(cfg.vote));
    }
    b = now_s();
    std::size_t row = 0;
    for (std::size_t r2 = 0; r2 < runs.size(); ++r2) {
      for (std::size_t x = runs[r2].first; x < runs[r2].second; ++x) {
        (void)votes[r2].push(batch.samples[x].hour, out[row++]);
      }
    }
    a = now_s();
    vot += a - b;
  }
  const double kd = static_cast<double>(k);
  const double sd = static_cast<double>(samples);
  const double rd = static_cast<double>(rows);
  const Lane& null_lane = lanes.back();
  std::vector<LayerTimes> out;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const Lane& lane = lanes[v];
    LayerTimes lt;
    lt.encode_us = 1e6 * enc / kd;
    lt.decode_us = 1e6 * dec / kd;
    lt.resp_encode_us = 1e6 * lane.resp / kd;
    lt.engine_us = 1e6 * lane.eng / kd;
    lt.engine_path_us = 1e6 * lane.path / kd;
    lt.store_us = 1e6 * lane.sto / kd;
    lt.core_us = 1e6 * lane.cor / kd;
    lt.store_ns = 1e9 * lane.sto / sd;
    lt.core_ns = 1e9 * lane.cor / sd;
    lt.core_null_ns = 1e9 * null_lane.cor / sd;
    lt.bytes_per_sample =
        static_cast<double>(dir_bytes(lane.store_dir) - lane.bytes0) / sd;
    lt.extract_ns = 1e9 * ext / rd;
    lt.tree_ns = 1e9 * tre / rd;
    lt.forest_ns = 1e9 * lane.fo / rd;
    lt.vote_ns = 1e9 * vot / rd;
    lt.calls_per_req = static_cast<double>(calls) / kd;
    lt.samples_per_call = sd / static_cast<double>(calls);
    out.push_back(lt);
  }
  for (auto& lane : lanes) {
    if (lane.engine) lane.engine->seal();
  }
  return out;
}

// The median of repeated probe passes, field by field.
LayerTimes median_layers(const std::vector<LayerTimes>& v) {
  LayerTimes m = v.front();
  for (auto f : {&LayerTimes::encode_us, &LayerTimes::decode_us,
                 &LayerTimes::resp_encode_us, &LayerTimes::engine_us,
                 &LayerTimes::engine_path_us, &LayerTimes::store_us,
                 &LayerTimes::core_us, &LayerTimes::store_ns,
                 &LayerTimes::core_ns, &LayerTimes::core_null_ns,
                 &LayerTimes::bytes_per_sample, &LayerTimes::extract_ns,
                 &LayerTimes::tree_ns, &LayerTimes::forest_ns,
                 &LayerTimes::vote_ns, &LayerTimes::calls_per_req,
                 &LayerTimes::samples_per_call}) {
    std::vector<double> x;
    for (const auto& l : v) x.push_back(l.*f);
    m.*f = pb::median(x);
  }
  return m;
}

// The retrain cycle split into its stages, replaying what
// pipeline::UpdatePipeline::run_cycle and train_and_gate do, on a fresh
// copy of the same store.
struct CycleStages {
  double window_read = 0, matrix_build = 0, fit = 0, verify = 0, gate = 0;
};

CycleStages cycle_stages(const fs::path& base, const fs::path& dir,
                         const Models& m, pb::ModelKind kind) {
  CycleStages cs;
  fresh_copy(base, dir);
  store::TelemetryStore st(dir.string());
  const auto& cfg = kind == pb::ModelKind::kCt ? m.ct_cfg : m.forest_cfg;
  const auto pc = pipeline_config(cfg);
  pipeline::RetrainScheduler sched(pc.scheduler);

  double t0 = now_s();
  const auto window = sched.window_hours(std::max<std::int64_t>(st.last_hour(), 0));
  std::vector<smart::DriveRecord> goods(st.drive_count());
  for (std::uint32_t id = 0; id < goods.size(); ++id) {
    goods[id].serial = st.drive(id).serial;
    goods[id].samples = st.read_drive(id, window.first, window.second - 1);
  }
  cs.window_read = now_s() - t0;
  const int weeks = static_cast<int>((window.second - window.first) / 168);

  Rng rng(pc.seed);
  const auto fperm = rng.permutation(m.failed_pool.size());
  const auto gperm = rng.permutation(goods.size());
  const auto n_tf = static_cast<std::size_t>(std::round(
      static_cast<double>(m.failed_pool.size()) * pc.train_fraction));
  const auto n_tg = static_cast<std::size_t>(
      std::round(static_cast<double>(goods.size()) * pc.train_fraction));
  data::DriveDataset train, val;
  data::DatasetSplit tsplit, vsplit;
  for (std::size_t i = 0; i < goods.size(); ++i) {
    auto g = goods[gperm[i]];
    if (g.empty()) continue;
    auto& ds = i < n_tg ? train : val;
    auto& sp = i < n_tg ? tsplit : vsplit;
    sp.good_drives.push_back(ds.drives.size());
    sp.good_test_begin.push_back(i < n_tg ? g.samples.size() : 0);
    ds.drives.push_back(std::move(g));
  }
  for (std::size_t i = 0; i < m.failed_pool.size(); ++i) {
    const auto& fd = m.failed_pool[fperm[i]];
    if (i < n_tf) {
      tsplit.train_failed.push_back(train.drives.size());
      train.drives.push_back(fd);
    } else if (!fd.empty()) {
      vsplit.test_failed.push_back(val.drives.size());
      val.drives.push_back(fd);
    }
  }
  data::TrainingConfig tc = cfg.training;
  tc.good_samples_per_drive =
      cfg.training.good_samples_per_drive * std::max(1, weeks);
  t0 = now_s();
  const auto matrix = data::build_training_matrix(train, tsplit, tc);
  double t1 = now_s();
  cs.matrix_build = t1 - t0;
  const auto cand = core::fit_scorer(cfg, matrix);
  t0 = now_s();
  cs.fit = t0 - t1;
  if (const tree::DecisionTree* tr = cand->tree()) {
    const auto rep = analysis::verify_tree(*tr, pc.verify, "candidate");
    (void)rep;
  }
  t1 = now_s();
  cs.verify = t1 - t0;
  const core::SampleScorer* raw = cand.get();
  const auto res = eval::evaluate_batch(
      val, vsplit, tc.features,
      [raw](std::span<const float> xs, std::span<double> out) {
        raw->predict_batch(xs, out);
      },
      cfg.vote);
  cs.gate = now_s() - t1;
  (void)res;
  return cs;
}

// ---------------------------------------------------------------------------
// Runs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (o.workload.empty() || o.workdir.empty() || o.seconds <= 0) {
    throw std::invalid_argument(
        "usage: fleetbench --workload W --seed N --seconds S --trace 0|1 "
        "--workdir DIR");
  }
  return o;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      note("CHECK FAILED: " + what);
    }
  }
  void print() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << '\n' << std::flush;
  }
};

constexpr int kRestarts = 20;  // set-up samples per run; median reported
// Forced cycles per run: a CT cycle before every round, whose CPU time
// varies more from one cycle to the next, and a forest cycle before every
// other round.
constexpr int kForestEvery = 2;

struct CycleTimes {
  double ct = 0.0;  // median forced cycle, wall seconds
  double forest = 0.0;
};

// Writes back whatever the workdir holds dirty, so the phase that follows
// does not pay for earlier phases' writeback.
void sync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool ok = fd >= 0 && ::syncfs(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!ok) throw std::runtime_error("cannot sync " + dir.string());
}

// Forced retrain cycles over fresh copies of a store holding the first
// kRetrainDrives drives' week.
struct CycleSamples {
  std::vector<CycleRun> ct, forest;

  void run_one(const Options& o, const Fleet& fleet, const Models& m,
               bool forest_too, Result& res) {
    // The cycle's fsyncs time the cycle, not the journal's writeback.
    sync_dir(o.workdir);
    const fs::path base = o.workdir / "retrain-base";
    if (!fs::exists(base)) build_store(base, fleet);
    std::vector<pb::ModelKind> kinds{pb::ModelKind::kCt};
    if (forest_too) kinds.push_back(pb::ModelKind::kForest40);
    for (const auto kind : kinds) {
      const auto r = forced_cycle(base, o.workdir / "retrain-run", m, kind);
      res.check(r.outcome == pipeline::Outcome::kPromoted,
                std::string("forced ") + pb::model_kind_name(kind) +
                    " cycle promoted (got " +
                    pipeline::outcome_name(r.outcome) + ")");
      (kind == pb::ModelKind::kCt ? ct : forest).push_back(r);
    }
    fs::remove_all(o.workdir / "retrain-run");
  }

  CycleTimes report(Result& res, Result& layers) const {
    const auto pick = [](const std::vector<CycleRun>& v, double CycleRun::*f) {
      std::vector<double> x;
      for (const auto& r : v) x.push_back(r.*f);
      return x;
    };
    const auto list = [](const std::vector<double>& v) {
      std::string out;
      for (const double x : v) {
        out += ' ';
        out += json_number(x);
      }
      return out;
    };
    note("forced cycles, wall s: ct" + list(pick(ct, &CycleRun::wall_s)) +
         "; forest" + list(pick(forest, &CycleRun::wall_s)));
    note("forced cycles, CPU s: ct" + list(pick(ct, &CycleRun::cpu_s)) +
         "; forest" + list(pick(forest, &CycleRun::cpu_s)));
    res.add("retrain_ct_cpu_s", pb::median(pick(ct, &CycleRun::cpu_s)), "s");
    res.add("retrain_forest_cpu_s", pb::median(pick(forest, &CycleRun::cpu_s)),
            "s");
    const CycleTimes wall{pb::median(pick(ct, &CycleRun::wall_s)),
                          pb::median(pick(forest, &CycleRun::wall_s))};
    layers.add("pipeline.cycle_ct_wall_s", wall.ct, "s");
    layers.add("pipeline.cycle_forest_wall_s", wall.forest, "s");
    return wall;
  }
};

// The fixed models' holdout quality, and the CPU that batched holdout
// scoring (FleetScorer::evaluate of the whole holdout, CT and forest)
// spends per holdout sample. One pass runs between rounds, so the passes
// spread over the run as the cycles do; the figure is their median, and
// every pass must give the same quality. The daemon is idle during a pass,
// so the process CPU is the scoring's own, pool threads included.
struct HoldoutScoring {
  std::unique_ptr<const Holdout> holdout =
      std::make_unique<Holdout>(make_holdout());
  std::size_t samples = 0;
  std::vector<Quality> quality;
  std::vector<double> cpu_s;

  HoldoutScoring() {
    for (const auto& d : holdout->ds.drives) {
      samples += d.samples.size() - test_begin(d);
    }
  }

  void run_one(const Models& m) {
    const double c0 = process_cpu_s();
    quality.push_back(holdout_quality(*holdout, m));
    cpu_s.push_back(process_cpu_s() - c0);
  }

  // Frees the holdout fleet, so the resident set read after it is the
  // daemon's.
  void report(Result& res) {
    holdout.reset();
    malloc_trim(0);
    const Quality& q = quality.front();
    res.check(in_band(q.ct_fdr, q.ct_far), "CT holdout FDR/FAR inside band");
    res.check(in_band(q.forest_fdr, q.forest_far),
              "forest holdout FDR/FAR inside band");
    res.check(std::all_of(quality.begin(), quality.end(),
                          [&](const Quality& x) { return x == q; }),
              "holdout quality is deterministic");
    note("holdout: ct FDR " + std::to_string(q.ct_fdr) + "% FAR " +
         std::to_string(q.ct_far) + "%, forest FDR " +
         std::to_string(q.forest_fdr) + "% FAR " +
         std::to_string(q.forest_far) + "%; " + std::to_string(quality.size()) +
         " passes of " + std::to_string(samples) +
         " samples scored by both models");
    res.add("ct_holdout_fdr", q.ct_fdr, "%");
    res.add("ct_holdout_far", q.ct_far, "%");
    res.add("forest_holdout_fdr", q.forest_fdr, "%");
    res.add("forest_holdout_far", q.forest_far, "%");
    res.add("eval_cpu_us_per_sample",
            1e6 * pb::median(cpu_s) / static_cast<double>(samples), "us");
  }
};

// Timings pooled over the interleaved rounds: capacity and CPU per sample
// over every closed-loop phase, latency median and tail over every
// open-loop request. Capacity and the tail are rows of the traced run, not
// end-to-end metrics: on a shared machine they move with other tenants'
// load by more than any bound a regression check could use. A traced run
// switches the daemon's tracer off in the closed loop of odd rounds; its
// capacity there against the even rounds is the tracing overhead, and only
// the traced rounds enter the totals.
struct Rounds {
  std::uint64_t samples = 0;
  double wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> rate_traced, rate_untraced;  // per closed-loop phase
  std::vector<pb::Timed> open;                     // every open-loop request
  std::vector<pb::Timed> queries;

  // Whether round r's closed loop runs without the daemon's tracer.
  static bool untraced(const Options& o, int r) { return o.trace && r % 2 == 1; }

  void add_closed(std::uint64_t n, double wall, double cpu, bool traced) {
    (traced ? rate_traced : rate_untraced)
        .push_back(static_cast<double>(n) / wall);
    if (!traced) return;
    samples += n;
    wall_s += wall;
    cpu_s += cpu;
  }

  void report(Result& res, Result& layers) const {
    const auto n = static_cast<double>(samples);
    layers.add("loadgen.capacity_samples_per_s", n / wall_s, "1/s");
    res.add("cpu_us_per_sample", 1e6 * cpu_s / n, "us");
    const auto lat = pb::due_latencies(open);
    const pb::Tail tl = pb::tail(lat);
    res.check(tl.percentile > 0, "enough open-loop samples for a tail");
    note("open loop: " + std::to_string(tl.count) + " requests, median " +
         json_number(1e3 * pb::median(lat)) + " ms, tail p" +
         json_number(tl.percentile) + " " + json_number(1e3 * tl.value) +
         " ms");
    // How unsteady the machine was: the spread of the per-round rates.
    note("closed loop: " + std::to_string(samples) + " samples in " +
         json_number(wall_s) + " s, per-round rate IQR/median " +
         (rate_traced.size() >= 2 ? json_number(pb::relative_iqr(rate_traced))
                                  : std::string("n/a")));
    res.add("latency_p50_ms", 1e3 * pb::median(lat), "ms");
    layers.add("loadgen.latency_tail_ms", 1e3 * tl.value, "ms");
    layers.add("loadgen.late_p99_ms",
               1e3 * pb::tail(pb::lateness(open)).value, "ms");
    if (!rate_untraced.empty()) {
      layers.add("trace.overhead_pct",
                 100 * (pb::median(rate_untraced) / pb::median(rate_traced) -
                        1),
                 "%");
    }
  }
};

// --- Traced-run layer probes ----------------------------------------------

// Sequential round trips on an idle daemon: pre-framed ingest requests
// (connection 0's next requests, so every sample stays fresh), then
// queries for random drives.
struct IdleProbe {
  double loopback_us = 0.0;  // mean per ingest request, client encode excluded
  double query_us = 0.0;     // median
  double query_p99_ms = 0.0;
};

IdleProbe idle_probe(int port, const Traffic& t, ConnState& c0, int requests,
                     int queries, std::uint64_t seed) {
  IdleProbe p;
  serve::Client client;
  client.connect("127.0.0.1", port);
  double total = 0.0;
  for (int r = 0; r < requests; ++r) {
    const auto batch = t.request(global_index(0, c0.next));
    const std::string framed =
        serve::frame_payload(serve::encode_ingest_request(batch));
    const double t0 = now_s();
    const std::string reply = client.roundtrip(framed);
    total += now_s() - t0;
    ++c0.next;
    const auto resp = serve::decode_ingest_response(reply);
    if (!resp || !ingest_ok(*resp, batch.samples.size())) {
      throw std::runtime_error("idle probe request was not accepted");
    }
  }
  p.loopback_us = 1e6 * total / requests;
  Rng rng(seed ^ 0x51ed);
  std::vector<double> q;
  for (int i = 0; i < queries; ++i) {
    const auto d = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(t.fleet->serials.size()));
    const double t0 = now_s();
    if (!client.query(t.fleet->serials[d]).known) {
      throw std::runtime_error("idle probe query found no drive");
    }
    q.push_back(now_s() - t0);
  }
  p.query_us = 1e6 * pb::median(q);
  p.query_p99_ms = 1e3 * pb::tail(q).value;
  return p;
}

// Probe requests per pass: about 65k-130k samples for every shape.
std::size_t probe_requests(const Workload& w) {
  return w.hours_per_req == 1 ? 128 : 12;
}

// Per self-test pass, the slowed variant minus (or over) the base one in
// one field; the median over the passes.
double median_delta(const std::vector<LayerTimes>& base,
                    const std::vector<LayerTimes>& slow,
                    double LayerTimes::*f) {
  std::vector<double> d;
  for (std::size_t i = 0; i < base.size(); ++i) {
    d.push_back(slow[i].*f - base[i].*f);
  }
  return pb::median(d);
}
double median_ratio(const std::vector<LayerTimes>& base,
                    const std::vector<LayerTimes>& slow,
                    double LayerTimes::*f) {
  std::vector<double> d;
  for (std::size_t i = 0; i < base.size(); ++i) {
    d.push_back(slow[i].*f / base[i].*f);
  }
  return pb::median(d);
}

// The ingest path's layers on the workload's requests, the add-up check,
// and the attribution self-test. `idle` is the loopback measurement the
// hand-off residual is taken from.
void layer_probes(const Options& o, const Workload& w, const Traffic& t,
                  const Models& m, const IdleProbe& idle, Result& layers) {
  constexpr int kPasses = 5;  // passes on the workload's own requests
  constexpr int kPairs = 9;   // self-test passes, each timing both variants
  const core::SampleScorer& serving = m.get(w.serving);
  const std::size_t k = probe_requests(w);
  const fs::path dir = o.workdir / "probe";
  std::vector<LayerTimes> base, fbase, slow;
  for (int p = 0; p < kPasses; ++p) {
    base.push_back(
        probe_layers(dir, t, {{&serving, m.forest.get()}}, *m.ct, m, 0, k)
            .front());
  }
  // The self-test's pairs: the forest serving and the slowed forest
  // serving side by side, on the backfill request shape (64 drives x
  // 168 h), where predict is most of the work, over at most 512 of the
  // fleet's drives.
  const SlowedScorer slowed(*m.forest);
  Fleet sub;
  const std::size_t nsub = std::min<std::size_t>(512, t.fleet->serials.size());
  sub.serials.assign(t.fleet->serials.begin(), t.fleet->serials.begin() + nsub);
  sub.week.assign(t.fleet->week.begin(), t.fleet->week.begin() + nsub);
  const Traffic st{&sub, 64, 168};
  constexpr std::size_t kSelfTestRequests = 24;
  for (int p = 0; p < kPairs; ++p) {
    const auto pair = probe_layers(
        dir, st, {{m.forest.get(), m.forest.get()}, {&slowed, &slowed}}, *m.ct,
        m, 0, kSelfTestRequests);
    fbase.push_back(pair[0]);
    slow.push_back(pair[1]);
  }
  fs::remove_all(dir);
  const LayerTimes L = median_layers(base);
  const double predict_ns =
      w.serving == pb::ModelKind::kForest40 ? L.forest_ns : L.tree_ns;

  layers.add("serve.encode_us_per_req", L.encode_us, "us");
  layers.add("serve.decode_us_per_req", L.decode_us, "us");
  layers.add("serve.response_encode_us_per_req", L.resp_encode_us, "us");
  layers.add("serve.engine_us_per_req", L.engine_us, "us");
  const double engine_self = L.engine_us - L.store_us - L.core_us;
  layers.add("serve.engine_self_us_per_req", engine_self, "us");
  layers.add("serve.loopback_us_per_req", idle.loopback_us, "us");
  layers.add("serve.engine_path_us_per_req", L.engine_path_us, "us");
  layers.add("serve.handoff_us_per_req",
             idle.loopback_us - L.decode_us - L.engine_path_us -
                 L.resp_encode_us,
             "us");
  layers.add("serve.query_idle_us", idle.query_us, "us");
  layers.add("serve.calls_per_req", L.calls_per_req, "count");
  layers.add("serve.samples_per_call", L.samples_per_call, "count");
  layers.add("store.append_ns_per_sample", L.store_ns, "ns");
  layers.add("store.bytes_per_sample", L.bytes_per_sample, "B");
  layers.add("core.ingest_ns_per_sample", L.core_ns, "ns");
  const double children = L.extract_ns + predict_ns + L.vote_ns;
  layers.add("core.self_ns_per_sample", L.core_ns - children, "ns");
  layers.add("core.vote_ns_per_push", L.vote_ns, "ns");
  layers.add("smart.extract_ns_per_row", L.extract_ns, "ns");
  layers.add("tree.predict_ns_per_row", L.tree_ns, "ns");
  layers.add("forest.predict_ns_per_row", L.forest_ns, "ns");

  // Add-up, both ways within 10%: the engine against its independently
  // timed children (store append + unjournaled core ingest); the core
  // against ingest on a zero-cost scorer plus the predict row. Extract,
  // predict and vote may not exceed the core by more than 10% either. The
  // residuals are printed above as their own rows.
  const double engine_res_pct = 100 * engine_self / L.engine_us;
  const double core_res_pct =
      100 * (L.core_ns - L.core_null_ns - predict_ns) / L.core_ns;
  const double core_children_pct = 100 * children / L.core_ns;
  layers.add("addup.engine_residual_pct", engine_res_pct, "%");
  layers.add("addup.core_residual_pct", core_res_pct, "%");
  layers.add("addup.core_children_pct", core_children_pct, "%");
  layers.check(std::abs(engine_res_pct) <= 10.0,
               "store + core add up to the engine within 10% (residual " +
                   std::to_string(engine_res_pct) + "%)");
  layers.check(std::abs(core_res_pct) <= 10.0,
               "null-scorer core + predict add up to the core within 10% "
               "(residual " + std::to_string(core_res_pct) + "%)");
  layers.check(core_children_pct <= 110.0,
               "extract + predict + vote do not exceed core ingest by >10% (" +
                   std::to_string(core_children_pct) + "%)");

  // Attribution self-test: the slowed forest's added predict time must
  // show on the forest predict row, and on the engine and core rows by as
  // much as the rows they run predict on (within half), while the rows
  // timed per variant that do not run the model (store append, response
  // encode) stay within 20% and the bytes do not move. Each figure is the
  // median over the pairs of variants.
  const double dforest = median_delta(fbase, slow, &LayerTimes::forest_ns);
  const double moved =
      100 * (median_ratio(fbase, slow, &LayerTimes::forest_ns) - 1);
  const double engine_match =
      100 * median_delta(fbase, slow, &LayerTimes::engine_us) /
      (1e-3 * dforest * static_cast<double>(st.samples_per_req()));
  const double core_match =
      100 * median_delta(fbase, slow, &LayerTimes::core_ns) / dforest;
  const std::pair<const char*, double LayerTimes::*> rows[] = {
      {"store.append_ns_per_sample", &LayerTimes::store_ns},
      {"serve.response_encode_us_per_req", &LayerTimes::resp_encode_us}};
  double others = 0.0;
  for (const auto& [name, f] : rows) {
    const double dx = 100 * (median_ratio(fbase, slow, f) - 1);
    note(std::string("self-test: ") + name + " moved " + std::to_string(dx) +
         "%");
    others = std::max(others, std::abs(dx));
  }
  note("self-test: forest.predict_ns_per_row moved " + std::to_string(moved) +
       "%; engine moved " + std::to_string(engine_match) + "% and core " +
       std::to_string(core_match) + "% of what that predicts");
  layers.add("selftest.forest_predict_delta_pct", moved, "%");
  layers.add("selftest.engine_delta_match_pct", engine_match, "%");
  layers.add("selftest.core_delta_match_pct", core_match, "%");
  layers.add("selftest.other_rows_max_delta_pct", others, "%");
  layers.check(moved >= 10.0, "slowed forest moves forest.predict_ns_per_row (" +
                                  std::to_string(moved) + "%)");
  layers.check(std::abs(engine_match - 100) <= 50 &&
                   std::abs(core_match - 100) <= 50,
               "the engine and core rows move by the predict delta");
  layers.check(others <= 20.0,
               "slowed forest leaves store/response-encode rows inside 20% (" +
                   std::to_string(others) + "%)");
  bool same_bytes = true;
  for (std::size_t i = 0; i < slow.size(); ++i) {
    same_bytes = same_bytes &&
                 slow[i].bytes_per_sample == fbase[i].bytes_per_sample;
  }
  layers.check(same_bytes,
               "slowed forest leaves store.bytes_per_sample unchanged");
}

// The retrain cycle's stages, and what run_cycle spends beyond them: the
// median of three stage passes against the median forced cycle.
void cycle_layers(const Options& o, const Models& m, const CycleTimes& cm,
                  Result& layers) {
  const fs::path base = o.workdir / "retrain-base";
  const fs::path run = o.workdir / "retrain-run";
  const auto stages = [&](pb::ModelKind kind) {
    std::vector<CycleStages> v;
    for (int i = 0; i < 3; ++i) v.push_back(cycle_stages(base, run, m, kind));
    CycleStages med;
    for (auto f : {&CycleStages::window_read, &CycleStages::matrix_build,
                   &CycleStages::fit, &CycleStages::verify,
                   &CycleStages::gate}) {
      std::vector<double> x;
      for (const auto& c : v) x.push_back(c.*f);
      med.*f = pb::median(x);
    }
    return med;
  };
  const CycleStages ct = stages(pb::ModelKind::kCt);
  const CycleStages fo = stages(pb::ModelKind::kForest40);
  fs::remove_all(run);
  const auto self = [](double cycle, const CycleStages& c) {
    return cycle - c.window_read - c.matrix_build - c.fit - c.verify - c.gate;
  };
  layers.add("store.window_read_s", ct.window_read, "s");
  layers.add("data.matrix_build_s", ct.matrix_build, "s");
  layers.add("tree.fit_s", ct.fit, "s");
  layers.add("forest.fit_s", fo.fit, "s");
  layers.add("analysis.verify_s", ct.verify, "s");
  layers.add("eval.gate_ct_s", ct.gate, "s");
  layers.add("eval.gate_forest_s", fo.gate, "s");
  layers.add("pipeline.self_ct_s", self(cm.ct, ct), "s");
  layers.add("pipeline.self_forest_s", self(cm.forest, fo), "s");
}

// --- Workload runs ----------------------------------------------------------

void run_serve(const Options& o, const Workload& w, Result& res,
               Result& layers) {
  const Models m = train_models();
  malloc_trim(0);
  const Fleet fleet = make_fleet(w.drives, o.seed);
  const Traffic traffic{&fleet, w.per_req, w.hours_per_req};
  const core::SampleScorer& model = m.get(w.serving);
  const auto& cfg = w.serving == pb::ModelKind::kCt ? m.ct_cfg : m.forest_cfg;

  HoldoutScoring scoring;

  const fs::path dir = o.workdir / "journal";
  const auto ec = engine_config(dir, model, m);
  prepopulate(fleet, ec);
  // Set-up is timed on a copy of the pre-populated journal, a few restarts
  // before each round, so its samples spread over the run as the cycles'
  // do; the daemon under load keeps the original.
  const fs::path setup_dir = o.workdir / "journal-setup";
  fs::copy(dir, setup_dir, fs::copy_options::recursive);
  const auto ec_setup = engine_config(setup_dir, model, m);
  std::vector<double> setups, opens, resumes;
  const auto restarts = [&](int n) {
    Daemon s;
    for (int i = 0; i < n; ++i) {
      setups.push_back(restart(s, ec_setup));
      opens.push_back(s.open_s);
      resumes.push_back(s.resume_s);
    }
    require_journaled(*s.engine, w.serving);
    s.stop();
  };

  Daemon d;
  (void)restart(d, ec);
  require_journaled(*d.engine, w.serving);
  const int port = d.server->port();

  // Warm-up, untimed: caches, the store's open segments and the shard
  // workers' buffers reach their steady state before the first round.
  ConnState conns[2];
  const auto warm = closed_loop(port, traffic, 1.0, conns);
  res.attempted += warm.requests;
  res.failed += warm.failed;

  // Rounds of closed loop (capacity) then open loop (latency).
  Rounds rounds;
  CycleSamples cycles;
  const double round_s = o.seconds / w.rounds;
  for (int r = 0; r < w.rounds; ++r) {
    // The set-ups, the forced cycles and the scoring passes are spread over
    // the rounds, so a slow spell of the machine does not catch them all.
    restarts(kRestarts / w.rounds + (r < kRestarts % w.rounds));
    cycles.run_one(o, fleet, m, r % kForestEvery == 0, res);
    scoring.run_one(m);
    const bool traced = !Rounds::untraced(o, r);
    obs::Tracer::global().set_enabled(traced);
    const auto cl = closed_loop(port, traffic, 0.35 * round_s, conns);
    obs::Tracer::global().set_enabled(true);
    res.attempted += cl.requests;
    res.failed += cl.failed;
    rounds.add_closed(cl.samples, cl.wall_s, cl.cpu_s, traced);
    // The closed loop's journal writeback is done before the open loop, so
    // its latencies carry only their own requests' writes.
    sync_dir(o.workdir);
    const auto ol = open_loop(port, traffic, 0.65 * round_s,
                              w.open_samples_per_s, w.queries, conns,
                              o.seed + static_cast<std::uint64_t>(r));
    res.attempted += ol.requests + ol.queries.size();
    res.failed += ol.failed;
    for (const auto& q : ol.queries) res.failed += q.ok ? 0 : 1;
    rounds.open.insert(rounds.open.end(), ol.timed.begin(), ol.timed.end());
    rounds.queries.insert(rounds.queries.end(), ol.queries.begin(),
                          ol.queries.end());
  }
  rounds.report(res, layers);
  const CycleTimes cm = cycles.report(res, layers);
  scoring.report(res);
  res.add("setup_s", pb::median(setups), "s");
  layers.add("store.open_s", pb::median(opens), "s");
  layers.add("core.resume_s", pb::median(resumes), "s");
  fs::remove_all(setup_dir);
  res.add("rss_mb", rss_mb(), "MB");

  IdleProbe idle;
  if (o.trace) {
    idle = idle_probe(port, traffic, conns[0], 200, 500, o.seed);
    // Without a query stream the row is the idle daemon's, as a control.
    layers.add("serve.query_p99_ms",
               w.queries
                   ? 1e3 * pb::tail(pb::due_latencies(rounds.queries)).value
                   : idle.query_p99_ms,
               "ms");
  }

  std::size_t alarms = 0;
  const auto hours = hours_sent(traffic, conns);
  const std::size_t bad =
      check_against_reference(port, fleet, hours, model, cfg, alarms);
  res.attempted += fleet.serials.size();
  res.failed += bad;
  note("correctness: " + std::to_string(fleet.serials.size()) +
       " drives checked, " + std::to_string(bad) + " mismatches, " +
       std::to_string(alarms) + " alarmed");
  res.check(bad == 0, "daemon vote state equals the in-memory reference");
  res.check(res.failed == 0, "no failed requests");
  d.stop();
  fs::remove_all(dir);

  if (o.trace) {
    layer_probes(o, w, traffic, m, idle, layers);
    cycle_layers(o, m, cm, layers);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = workload_named(o.workload);
    fs::remove_all(o.workdir);
    fs::create_directories(o.workdir);
    enable_production_obs(o.workdir);
    Result res, layers;
    run_serve(o, w, res, layers);
    fs::remove_all(o.workdir);
    if (o.trace) {
      layers.correct = layers.correct && res.correct;
      layers.attempted = res.attempted;
      layers.failed = res.failed;
      layers.print();
    } else {
      res.print();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: " << e.what() << '\n';
    return 1;
  }
}
