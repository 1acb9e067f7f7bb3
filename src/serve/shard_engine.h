// ShardEngine — the synchronous core of the serve daemon.
//
// The fleet is partitioned into K shards by a stable hash of the drive
// serial. Each shard owns a full journaled scoring stack (one
// core::FleetRuntime: TelemetryStore in <dir>/shard-<k> plus FleetScorer)
// over one shared loaded model, and is single-threaded by contract — the
// Server gives each shard its own worker thread, and the fault-injection
// property tests drive the engine directly on the test thread so a
// simulated crash (io::CrashPoint) is catchable.
//
// Crash-resume: resume() replays every shard's journal through
// FleetScorer::resume_from, so a killed daemon restarts with
// byte-identical alarm state; re-sent batches are dropped sample-by-sample
// by the admit rule in FleetScorer::ingest_drive. The shard count is part
// of the on-disk layout (the hash routes a serial to the same subdir every
// run) — opening a store laid out for more shards than configured is a
// ConfigError, not silent re-routing.
//
// Per-drive memory is bounded: each drive holds one DriveVoteState ring
// (N voters) plus a history window trimmed to 4x the feature set's largest
// change interval (at least 24 h), regardless of how many samples it ever
// ingested.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/runtime.h"
#include "serve/wire.h"

namespace hdd::serve {

struct ShardEngineConfig {
  // Root directory; shard k journals into <dir>/shard-<k>.
  std::string dir;
  std::size_t shards = 1;
  // Template for every shard's runtime: model (path or scorer), store
  // options, vote/feature/quarantine settings. store_dir is ignored (the
  // engine derives it); a model_path is loaded once and shared.
  core::FleetRuntimeConfig runtime;
};

class ShardEngine {
 public:
  explicit ShardEngine(ShardEngineConfig config);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  // Stable serial -> shard routing (FNV-1a, identical across restarts).
  std::size_t shard_of(std::string_view serial) const;

  // Replays every shard's journal; returns total samples replayed. With a
  // hot-swappable runtime, also reconciles model generations across shards:
  // a crash mid-promotion journals the new generation into only a prefix of
  // the shards, so the lagging shards re-journal and swap to the newest
  // generation found anywhere — after resume, every shard scores with one
  // well-defined model again.
  std::size_t resume();

  // Newest promoted generation across shards (0 = seed model everywhere).
  std::uint64_t max_generation() const;

  // Ingest one batch routed to shard k (every entry's serial must hash
  // there). Consecutive same-serial runs become single ingest_drive
  // batches. Unknown serials are registered on first sight.
  IngestResponse ingest(std::size_t k, const IngestBatch& batch);

  QueryResponse query(const std::string& serial) const;

  // Whole-engine stats; only safe when nothing is mutating any shard.
  StatsResponse stats() const;
  // One shard's contribution — the Server gathers these on each shard's
  // own worker so stats never race a concurrent ingest.
  StatsResponse shard_stats(std::size_t k) const;

  // Durably flushes every shard's journal (fsync).
  void seal();

  core::FleetRuntime& shard(std::size_t k) { return *shards_[k].runtime; }

 private:
  struct Shard {
    std::unique_ptr<core::FleetRuntime> runtime;
    std::unordered_map<std::string, std::size_t> index;  // serial -> fleet id
  };

  std::size_t drive_index(Shard& shard, const std::string& serial);

  std::unique_ptr<core::SampleScorer> owned_scorer_;  // shared loaded model
  std::vector<Shard> shards_;
};

}  // namespace hdd::serve
