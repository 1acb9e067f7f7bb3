// RetrainLoop — the serve daemon's continuous model-update controller.
//
// A background thread runs the pipeline::RetrainScheduler against the
// daemon's own journals: on each due tick it materializes the training
// window from every shard's TelemetryStore (one read_window pass per
// shard, on that shard's worker, so reads never race ingest), trains +
// gates one candidate via pipeline::train_and_gate, and promotes it
// fleet-wide.
//
// Promotion state machine (DESIGN.md §10):
//
//   idle --due--> train+gate --reject--> idle          (counted, no swap)
//                     |pass
//                     v
//        [min_shadow_samples == 0]  --> promote
//        [min_shadow_samples  > 0]  --> shadowing --enough samples--> promote
//
// "shadowing" installs the candidate as every shard's FleetScorer shadow:
// it scores live traffic next to the incumbent (divergence counters in
// /metrics) but cannot raise real alarms; promotion waits until the fleet
// has shadow-scored the configured sample count. Promotion itself is
// journal-first and shard-by-shard: each shard's generation record is
// appended on that shard's worker (serialized with its ingest writes), and
// only then is the SwappableScorer swapped — a kill -9 anywhere in between
// is healed by ShardEngine::resume()'s generation reconciliation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "pipeline/pipeline.h"
#include "smart/drive.h"

namespace hdd::serve {

class Server;
class ShardEngine;

struct RetrainLoopConfig {
  pipeline::PipelineConfig pipeline;
  // Labeled failure records shared across retrains (the paper's shared
  // failed pool); the store's own drives are the good population.
  std::vector<smart::DriveRecord> failed_pool;
  // Scheduler poll cadence of the background thread.
  int poll_interval_ms = 500;
};

class RetrainLoop {
 public:
  // Every shard of `engine` must be hot-swappable
  // (FleetRuntimeConfig::hot_swappable); both references must outlive the
  // loop.
  RetrainLoop(ShardEngine& engine, Server& server, RetrainLoopConfig config);
  ~RetrainLoop();

  RetrainLoop(const RetrainLoop&) = delete;
  RetrainLoop& operator=(const RetrainLoop&) = delete;

  // Spawns / joins the background thread. stop() is idempotent and safe
  // without start().
  void start();
  void stop();

  // One scheduler tick, synchronous. Call either from the background
  // thread (start()) or directly (tests, single-shot tools) — never both.
  // `force` bypasses the due-check, and promotes a shadowing candidate
  // regardless of accumulated shadow samples.
  pipeline::CycleResult tick(bool force = false);

  pipeline::CycleResult last_result() const;
  bool shadowing() const { return pending_ != nullptr; }

 private:
  pipeline::CycleResult maybe_promote(bool force);
  void promote(std::shared_ptr<const core::SampleScorer> candidate,
               pipeline::CycleResult& r);
  void publish(const pipeline::CycleResult& r);
  std::uint64_t fleet_shadow_samples() const;
  void loop();

  ShardEngine* engine_;
  Server* server_;
  RetrainLoopConfig config_;
  pipeline::RetrainScheduler scheduler_;
  pipeline::PipelineMetrics metrics_;

  // Shadowing state; only the tick caller touches it.
  std::shared_ptr<const core::SampleScorer> pending_;
  std::uint64_t shadow_baseline_ = 0;
  double pending_far_ = 0.0;
  double pending_fdr_ = 0.0;

  mutable Mutex mu_{lock_order::Rank::kRetrainResult, "retrain-result"};
  pipeline::CycleResult last_ HDD_GUARDED_BY(mu_);

  std::thread thread_;
  Mutex stop_mu_{lock_order::Rank::kRetrainStop, "retrain-stop"};
  CondVar stop_cv_;
  bool stop_requested_ HDD_GUARDED_BY(stop_mu_) = false;
};

}  // namespace hdd::serve
