// RetrainLoop — the serve daemon's continuous model-update controller.
//
// A background thread ticks a pipeline::UpdatePipeline whose targets are
// the daemon's shards (each shard's TelemetryStore and SwappableScorer).
// The pipeline runs the whole cycle — watermarks, the training window,
// train_and_gate, the scheduler, the counters and the journal-first
// promotion — with every store access made through Server::run_on_shard,
// so reads and generation records serialize with that shard's ingest.
// This loop adds only what the daemon needs around it: the thread, the
// shadow deferral below, and publishing each outcome to the stats op.
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
// has shadow-scored the configured sample count. Promotion journals every
// shard's generation record before any shard swaps; a kill -9 in between
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
  // The pipeline's promote step, then every shard drops its shadow.
  void promote(std::shared_ptr<const core::SampleScorer> candidate,
               pipeline::CycleResult& r);
  void publish(const pipeline::CycleResult& r);
  std::uint64_t fleet_shadow_samples() const;
  void loop();

  ShardEngine* engine_;
  Server* server_;
  int poll_interval_ms_;
  pipeline::UpdatePipeline pipeline_;

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
