#include "serve/retrain_loop.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/runtime.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/shard_engine.h"

namespace hdd::serve {

namespace {

std::vector<pipeline::Target> shard_targets(ShardEngine& engine) {
  std::vector<pipeline::Target> targets;
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    core::FleetRuntime& shard = engine.shard(k);
    HDD_REQUIRE(shard.swappable() != nullptr,
                "retrain loop needs hot-swappable shard runtimes");
    targets.push_back({&shard.store(), shard.swappable()});
  }
  return targets;
}

}  // namespace

RetrainLoop::RetrainLoop(ShardEngine& engine, Server& server,
                         RetrainLoopConfig config)
    : engine_(&engine),
      server_(&server),
      poll_interval_ms_(config.poll_interval_ms),
      pipeline_(shard_targets(engine),
                [&server](std::size_t k, const std::function<void()>& step) {
                  return server.run_on_shard(k, step);
                },
                std::move(config.failed_pool), std::move(config.pipeline)) {}

RetrainLoop::~RetrainLoop() { stop(); }

void RetrainLoop::start() {
  thread_ = std::thread([this] { loop(); });
}

void RetrainLoop::stop() {
  {
    MutexLock lock(&stop_mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void RetrainLoop::loop() {
  for (;;) {
    {
      // Wait out the poll interval unless stop() interrupts it. The
      // deadline is absolute so spurious wakeups don't extend the wait.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(poll_interval_ms_);
      MutexLock lock(&stop_mu_);
      while (!stop_requested_ &&
             stop_cv_.wait_until(stop_mu_, deadline) !=
                 std::cv_status::timeout) {
      }
      if (stop_requested_) return;
    }
    try {
      (void)tick(/*force=*/false);
    } catch (const std::exception& e) {
      // A failed cycle must never take the daemon down; the scheduler was
      // marked (or will re-trigger), and the incumbent keeps scoring.
      log_warn() << "retrain loop: cycle failed: " << e.what();
    }
  }
}

pipeline::CycleResult RetrainLoop::last_result() const {
  MutexLock lock(&mu_);
  return last_;
}

void RetrainLoop::publish(const pipeline::CycleResult& r) {
  log_info() << "retrain loop: " << pipeline::outcome_name(r.outcome)
             << ", generation " << r.generation << " (val FAR " << r.val_far
             << ", FDR " << r.val_fdr << ")"
             << (r.reason.empty() ? "" : ": " + r.reason);
  {
    MutexLock lock(&mu_);
    last_ = r;
  }
  if (r.outcome != pipeline::Outcome::kSkipped) {
    server_->set_last_outcome(static_cast<std::uint8_t>(r.outcome));
  }
}

std::uint64_t RetrainLoop::fleet_shadow_samples() const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    total += engine_->shard(k).fleet().shadow_stats().samples;
  }
  return total;
}

pipeline::CycleResult RetrainLoop::tick(bool force) {
  // Each tick is its own trace (never a child of whatever request context
  // happens to linger on the caller's thread).
  const obs::WithTraceContext fresh(obs::TraceContext{});
  const obs::ScopedSpan span("retrain.tick");
  if (pending_ != nullptr) return maybe_promote(force);

  pipeline::CycleResult r = pipeline_.gate(force);
  if (r.outcome == pipeline::Outcome::kSkipped) return r;
  const std::uint64_t min_shadow = pipeline_.config().min_shadow_samples;
  if (r.candidate != nullptr && min_shadow == 0) {
    promote(std::move(r.candidate), r);
  } else if (r.candidate != nullptr) {
    // Gates passed but the candidate must first prove itself on live
    // traffic: install it as every shard's shadow and defer promotion.
    pending_ = std::move(r.candidate);
    pending_far_ = r.val_far;
    pending_fdr_ = r.val_fdr;
    shadow_baseline_ = fleet_shadow_samples();
    for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
      engine_->shard(k).fleet().set_shadow(pending_);
    }
    r.outcome = pipeline::Outcome::kSkipped;
    r.reason = "shadow-scoring candidate before promotion";
  }
  publish(r);
  return r;
}

pipeline::CycleResult RetrainLoop::maybe_promote(bool force) {
  pipeline::CycleResult r;
  r.generation = pipeline_.generation();
  r.val_far = pending_far_;
  r.val_fdr = pending_fdr_;
  const std::uint64_t scored = fleet_shadow_samples() - shadow_baseline_;
  const std::uint64_t min_shadow = pipeline_.config().min_shadow_samples;
  if (!force && scored < min_shadow) {
    r.outcome = pipeline::Outcome::kSkipped;
    std::ostringstream os;
    os << "shadowing: " << scored << "/" << min_shadow << " samples";
    r.reason = os.str();
    return r;
  }
  // A copy, so a promote step that throws leaves the candidate pending and
  // the next tick retries it.
  promote(pending_, r);
  pending_ = nullptr;
  publish(r);
  return r;
}

void RetrainLoop::promote(std::shared_ptr<const core::SampleScorer> candidate,
                          pipeline::CycleResult& r) {
  r.generation = pipeline_.promote(std::move(candidate));
  r.outcome = pipeline::Outcome::kPromoted;
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    engine_->shard(k).fleet().set_shadow(nullptr);
  }
}

}  // namespace hdd::serve
