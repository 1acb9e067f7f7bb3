#include "serve/shard_engine.h"

#include <algorithm>
#include <filesystem>
#include <span>

#include "common/error.h"
#include "common/log.h"
#include "core/model_io.h"
#include "obs/trace.h"

namespace fs = std::filesystem;

namespace hdd::serve {

namespace {

// FNV-1a, not std::hash: shard routing is part of the on-disk layout, so
// it must be identical across processes, builds and standard libraries.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ShardEngine::ShardEngine(ShardEngineConfig config) {
  HDD_REQUIRE(config.shards >= 1, "serve needs at least one shard");
  HDD_REQUIRE(!config.dir.empty(), "serve needs a store directory");

  // A store laid out for more shards than we were configured with would
  // silently re-route serials into fresh empty shards; refuse instead.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const std::string digits = name.substr(6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    HDD_REQUIRE(std::stoull(digits) < config.shards,
                "store " + config.dir + " holds " + name +
                    " but only " + std::to_string(config.shards) +
                    " shard(s) are configured");
  }

  core::FleetRuntimeConfig rt = config.runtime;
  if (!rt.model_path.empty()) {
    // Load once, share across shards: the model is immutable at serve time.
    owned_scorer_ = core::make_model_scorer(
        core::load_model_file(rt.model_path, rt.load));
    rt.model_path.clear();
    rt.scorer = owned_scorer_.get();
  }

  shards_.resize(config.shards);
  for (std::size_t k = 0; k < config.shards; ++k) {
    core::FleetRuntimeConfig shard_rt = rt;
    shard_rt.store_dir =
        (fs::path(config.dir) / ("shard-" + std::to_string(k))).string();
    shards_[k].runtime = std::make_unique<core::FleetRuntime>(shard_rt);
  }
}

std::size_t ShardEngine::shard_of(std::string_view serial) const {
  return static_cast<std::size_t>(fnv1a(serial) % shards_.size());
}

std::size_t ShardEngine::resume() {
  const obs::ScopedSpan span("serve.resume");
  std::size_t replayed = 0;
  for (Shard& sh : shards_) {
    if (sh.runtime->store().drive_count() == 0) continue;
    // drop_partial_tail=false: serve drives report on their own clocks,
    // so a trailing hour present for only some drives is normal, not a
    // torn lockstep interval. Torn *records* were already truncated by
    // store recovery.
    const auto r = sh.runtime->resume(/*drop_partial_tail=*/false);
    replayed += r.samples_replayed;
    core::FleetScorer& fleet = sh.runtime->fleet();
    sh.index.clear();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      sh.index.emplace(fleet.serial(i), i);
    }
  }

  // Generation reconciliation: a promotion journals shard by shard, so a
  // crash mid-way leaves a prefix on generation N and the rest on N-1. The
  // newest journaled record (same model text in every shard that has it)
  // wins; lagging shards journal it and swap, restoring one fleet-wide
  // model.
  std::uint64_t newest = 0;
  const store::GenerationRecord* best = nullptr;
  for (Shard& sh : shards_) {
    if (sh.runtime->swappable() == nullptr) continue;
    const auto& rec = sh.runtime->store().latest_generation();
    if (rec.has_value() && rec->generation > newest) {
      newest = rec->generation;
      best = &*rec;
    }
  }
  if (best != nullptr) {
    const std::shared_ptr<const core::SampleScorer> model =
        core::load_generation_model(best->model_text);
    for (Shard& sh : shards_) {
      if (sh.runtime->swappable() == nullptr) continue;
      if (sh.runtime->model_generation() >= newest) continue;
      log_warn() << "serve: shard missed generation " << newest
                 << " (crash mid-promotion); reconciling";
      sh.runtime->store().append_generation(newest, best->model_text);
      sh.runtime->swappable()->swap(model, newest);
    }
  }
  return replayed;
}

std::uint64_t ShardEngine::max_generation() const {
  std::uint64_t g = 0;
  for (const Shard& sh : shards_) {
    g = std::max(g, sh.runtime->model_generation());
  }
  return g;
}

std::size_t ShardEngine::drive_index(Shard& shard, const std::string& serial) {
  const auto it = shard.index.find(serial);
  if (it != shard.index.end()) return it->second;
  const std::size_t i = shard.runtime->fleet().add_drive(serial);
  shard.index.emplace(serial, i);
  return i;
}

IngestResponse ShardEngine::ingest(std::size_t k, const IngestBatch& batch) {
  HDD_REQUIRE(k < shards_.size(), "shard index out of range");
  Shard& sh = shards_[k];
  core::FleetScorer& fleet = sh.runtime->fleet();
  IngestResponse res;
  const std::size_t n = batch.samples.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && batch.serials[j] == batch.serials[i]) ++j;
    const std::size_t idx = drive_index(sh, batch.serials[i]);
    const auto r = fleet.ingest_drive(
        idx, std::span<const smart::Sample>(batch.samples.data() + i, j - i));
    res.accepted += r.accepted;
    res.stale += r.stale;
    res.quarantined += r.quarantined;
    if (r.journal_failed) ++res.journal_failed;
    i = j;
  }
  res.degraded = fleet.degraded();
  return res;
}

QueryResponse ShardEngine::query(const std::string& serial) const {
  const Shard& sh = shards_[shard_of(serial)];
  QueryResponse res;
  const auto it = sh.index.find(serial);
  if (it == sh.index.end()) return res;
  const core::FleetScorer& fleet = sh.runtime->fleet();
  const core::DriveVoteState& state = fleet.state(it->second);
  res.known = true;
  res.alarmed = state.alarmed();
  res.alarm_hour = state.alarm_hour();
  res.samples_seen = state.samples_seen();
  const auto id = sh.runtime->store().find_drive(serial);
  if (id) res.last_hour = sh.runtime->store().drive(*id).last_hour;
  return res;
}

StatsResponse ShardEngine::shard_stats(std::size_t k) const {
  HDD_REQUIRE(k < shards_.size(), "shard index out of range");
  const core::FleetRuntime& rt = *shards_[k].runtime;
  StatsResponse res;
  res.drives = rt.fleet().size();
  res.alarms = rt.fleet().alarm_count();
  res.degraded = rt.fleet().degraded();
  res.samples = rt.store().sample_count();
  res.generation = rt.model_generation();
  const auto sh = rt.fleet().shadow_stats();
  res.shadow_samples = sh.samples;
  res.shadow_divergence = sh.divergence;
  return res;
}

StatsResponse ShardEngine::stats() const {
  StatsResponse res;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const StatsResponse s = shard_stats(k);
    res.drives += s.drives;
    res.samples += s.samples;
    res.alarms += s.alarms;
    res.degraded = res.degraded || s.degraded;
    res.generation = std::max(res.generation, s.generation);
    res.shadow_samples += s.shadow_samples;
    res.shadow_divergence += s.shadow_divergence;
  }
  return res;
}

void ShardEngine::seal() {
  for (Shard& sh : shards_) sh.runtime->seal();
}

}  // namespace hdd::serve
