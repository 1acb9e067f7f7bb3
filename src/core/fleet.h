// FleetScorer — batched, multi-threaded scoring of a whole drive fleet.
//
// The paper's deployment story (Section V-E) is a monitoring node that
// scores every drive in a data center on each SMART sample interval. This
// engine serves that workload in two modes:
//
//  * Streaming: register the fleet once (add_drive), then feed one feature
//    row per drive per interval (observe_interval). The engine scores the
//    snapshot through SampleScorer::predict_batch in row blocks spread over
//    the thread pool, and advances a per-drive incremental voting window
//    (eval::DriveVoteState) — detection never rescans a drive's history.
//  * Replay/evaluation: score whole DriveRecords (replay, evaluate) through
//    eval::detect_record over eval::holdout_jobs — block feature
//    extraction, batch model calls, early exit at the first alarm — with
//    parallelism across drives. Every mode votes through the same
//    eval::DriveVoteState, so decisions match eval::evaluate exactly.
//  * Journaled streaming: attach a store::TelemetryStore and feed raw SMART
//    samples (observe_samples). Each interval is observed -> appended to the
//    durable log -> scored; after a crash, resume_from() replays the log
//    through the same bounded-history feature path, restoring every
//    DriveVoteState so the continued run raises byte-identical alarms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/rcu_slot.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "data/split.h"
#include "eval/detection.h"
#include "smart/drive.h"

namespace hdd::store {
class TelemetryStore;
}
namespace hdd::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace hdd::obs

namespace hdd::core {

// What observe_samples quarantines instead of scoring. Quarantined samples
// are skipped symmetrically everywhere — not journaled, not pushed into
// history, not voted on — so a resumed run replays exactly the stream the
// live run scored.
enum class QuarantinePolicy {
  kOff,        // score everything (caller vouches for the data)
  kNonFinite,  // quarantine NaN/Inf attribute values
  kFullDomain, // also quarantine values outside smart::attribute_range()
};

struct FleetScorerConfig {
  smart::FeatureSet features;
  eval::VoteConfig vote;
  // Rows per predict_batch call (and per parallel work item in streaming
  // mode).
  std::size_t block_rows = 256;
  // Hours of raw-sample history kept per drive for change-rate features in
  // journaled streaming mode; 0 = auto (4x the largest change interval of
  // the feature set, at least 24 h). Live scoring and resume_from() trim
  // with the same rule, which is what makes resumed decisions identical.
  int history_hours = 0;
  // Ingest hygiene for observe_samples. The default only rejects values no
  // finite arithmetic can use; kFullDomain is for raw vendor telemetry
  // (CLI ingest uses it). Synthetic/pre-normalized pipelines that score
  // values outside the vendor scale keep the domain check off.
  QuarantinePolicy quarantine = QuarantinePolicy::kNonFinite;
  // nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  // Registry for the hdd_fleet_* metrics (samples scored, batch latency,
  // alarms, vote transitions, journal resumes); nullptr =
  // obs::Registry::global(). A non-global registry must outlive the
  // scorer.
  obs::Registry* metrics = nullptr;
};

// The one N-voter window lives in eval; core keeps the name for its
// callers.
using eval::DriveVoteState;

class FleetScorer {
 public:
  // The scorer must outlive the FleetScorer.
  FleetScorer(const SampleScorer& scorer, FleetScorerConfig config);

  const FleetScorerConfig& config() const { return config_; }

  // --- Streaming mode -------------------------------------------------------

  // Registers a drive; returns its fleet index.
  std::size_t add_drive(std::string serial);
  std::size_t size() const { return states_.size(); }
  const std::string& serial(std::size_t i) const { return serials_[i]; }
  const DriveVoteState& state(std::size_t i) const { return states_[i]; }

  // Scores one interval snapshot: row i of the row-major block (or matrix)
  // is drive i's current feature row. Batched + parallel; per-drive voting
  // state advances incrementally. Already-alarmed drives keep their alarm.
  void observe_interval(std::span<const float> xs, std::int64_t hour);
  void observe_interval(const data::DataMatrix& m, std::int64_t hour);

  std::size_t alarm_count() const;
  std::vector<std::size_t> alarmed_drives() const;

  // Clears every drive's voting state (the registry stays).
  void reset();

  // --- Journaled streaming mode ---------------------------------------------

  // Attaches a durable journal (nullptr detaches): every registered drive is
  // registered in the store, and observe_samples appends each sample before
  // scoring it. The store must outlive the attachment.
  void attach_journal(store::TelemetryStore* store);
  store::TelemetryStore* journal() const { return journal_; }

  // Scores one interval of raw SMART telemetry: samples[i] is drive i's
  // reading, all stamped `hour`. Order of operations per drive: append to
  // the journal (if attached; skipped when the store already holds this
  // hour, which makes re-observing an interval after a resume idempotent),
  // push into the bounded history window, extract features, score, vote.
  //
  // Graceful degradation: samples failing the quarantine policy, and
  // samples whose journal append fails, are counted
  // (hdd_fleet_quarantined_samples_total /
  // hdd_fleet_journal_append_failures_total), logged, and skipped for this
  // interval — the rest of the fleet still scores. Journal failures also
  // latch degraded(). A skipped sample is skipped everywhere (journal,
  // history, voting), so in-memory state always matches what a resume
  // would replay.
  void observe_samples(std::span<const smart::Sample> samples,
                       std::int64_t hour);

  struct IngestResult {
    std::size_t accepted = 0;     // journaled (if attached) and scored
    std::size_t quarantined = 0;  // failed the quarantine policy
    std::size_t stale = 0;        // at or before the drive's newest hour
    bool journal_failed = false;  // batch skipped; degraded() is latched
  };

  // Per-drive batched ingest — the serve path, where drives report on
  // their own clocks instead of fleet-lockstep intervals. Samples must be
  // hour-ascending; anything at or before the drive's newest journaled
  // (or, without a journal, in-memory) hour is dropped as stale, which
  // makes re-sending a batch after a crash/resume idempotent. Accepted
  // samples are appended to the journal as one batched write
  // (flush_to_os, not fsync — the daemon fsyncs on seal/shutdown), then
  // pushed through the same history/extraction/voting path
  // observe_samples and resume_from share, so a resumed daemon raises
  // byte-identical alarms. Not thread-safe: callers serialize per scorer
  // (serve gives each shard its own scorer + store).
  IngestResult ingest_drive(std::size_t i,
                            std::span<const smart::Sample> samples);

  // True once any journal append/flush has failed; alarms raised since are
  // based on partial telemetry.
  bool degraded() const { return degraded_; }
  std::uint64_t quarantined_samples() const { return quarantined_; }
  std::uint64_t journal_failures() const { return journal_failures_; }

  // --- Shadow scoring -------------------------------------------------------

  // Divergence between the incumbent and a shadow candidate, accumulated
  // over live traffic since the shadow was installed (also exported as
  // hdd_pipeline_shadow_* counters). Shadow vote windows start empty, so
  // flip/alarm comparisons warm up over the first window.
  struct ShadowStats {
    std::uint64_t samples = 0;      // rows the shadow scored
    std::uint64_t divergence = 0;   // sign(shadow) != sign(incumbent)
    std::uint64_t vote_flips = 0;   // rolling window verdicts disagree
    std::uint64_t alarm_delta = 0;  // exactly one side raised its alarm
  };

  // Installs a candidate to score the same live feature rows as the
  // incumbent, on separate voting state that never raises real alarms
  // (nullptr uninstalls). Safe to call from a controller thread while a
  // scoring thread is mid-call: the running call finishes on the shadow it
  // pinned at entry. Each install resets the shadow voting states and
  // leaves the accumulated stats monotonic. Replay/resume paths never
  // shadow-score — only live traffic does.
  void set_shadow(std::shared_ptr<const SampleScorer> candidate);
  bool has_shadow() const;
  ShadowStats shadow_stats() const;

  struct ResumeResult {
    std::size_t drives = 0;
    std::size_t samples_replayed = 0;
    // Trailing samples dropped because their interval was torn mid-write
    // (only with drop_partial_tail).
    std::size_t partial_dropped = 0;
    std::int64_t last_hour = -1;  // latest hour applied to voting state
  };

  // Restores every drive's voting state by replaying the store through the
  // same history/extraction/scoring path observe_samples uses. With an
  // empty registry the store's drives are adopted in id order; otherwise
  // the registry must match the store drive for drive. drop_partial_tail
  // discards a trailing interval that only some drives reached (a crash
  // mid-append); re-observing that hour then completes it for everyone.
  ResumeResult resume_from(store::TelemetryStore& store,
                           bool drop_partial_tail = true);

  // --- Replay / evaluation mode ---------------------------------------------

  // Scores every drive's record from its first sample; returns one outcome
  // per dataset drive. Parallel across drives, batch within a drive, early
  // exit at the first alarm.
  std::vector<eval::DriveOutcome> replay(
      const data::DriveDataset& dataset) const;

  // Split-aware evaluation: identical results to eval::evaluate with the
  // same features/vote, via the batched engine.
  eval::EvalResult evaluate(const data::DriveDataset& dataset,
                            const data::DatasetSplit& split) const;

 private:
  // One generation of installed shadow model; readers pin the whole slot.
  struct ShadowSlot {
    std::shared_ptr<const SampleScorer> model;
    std::uint64_t epoch = 0;
  };
  // Everything one scoring call needs pinned for its whole duration: the
  // incumbent (possibly a hot-swap pin) and the shadow generation. Built
  // once per public call so a batch never mixes model generations.
  struct ScoreCtx {
    std::shared_ptr<const SampleScorer> pinned;  // keepalive for `model`
    const SampleScorer* model = nullptr;
    const SampleScorer* shadow = nullptr;  // nullptr = no shadow scoring
    std::shared_ptr<const ShadowSlot> shadow_pin;
  };
  // Per-block shadow tallies, flushed once per block to the atomics +
  // counters (keeps the hot loop free of per-sample atomic traffic).
  struct ShadowTally {
    std::uint64_t samples = 0;
    std::uint64_t divergence = 0;
    std::uint64_t vote_flips = 0;
    std::uint64_t alarm_delta = 0;
  };

  // `live` additionally pins the shadow and (single-threaded) refreshes
  // shadow voting state for a newly installed candidate.
  ScoreCtx make_ctx(bool live);
  void flush_shadow(const ShadowTally& t);
  // Scores one shadow output against the incumbent's state for drive i.
  // `primary_raised` is the incumbent push() result for the same sample.
  void shadow_push(const ScoreCtx& ctx, std::size_t i, std::int64_t hour,
                   double shadow_output, double primary_output,
                   bool primary_raised, ShadowTally& tally);

  eval::DriveOutcome replay_drive(const SampleScorer& model,
                                  const smart::DriveRecord& drive,
                                  std::size_t begin) const;
  ThreadPool& pool() const;
  // A tolerated journal append/flush failure: latches degraded(), counts
  // it and logs `message` as a warning.
  void note_journal_failure(const std::string& message);
  void push_history(std::size_t i, const smart::Sample& sample);
  void replay_drive_samples(const ScoreCtx& ctx, std::size_t i,
                            std::span<const smart::Sample> samples);

  const SampleScorer* scorer_;
  FleetScorerConfig config_;
  int history_hours_ = 0;  // resolved from config (auto when 0)

  // hdd_fleet_* instruments (resolved from config_.metrics, see DESIGN.md
  // §7). Owned by the registry; shared across scorers on that registry.
  obs::Counter* m_samples_scored_;
  obs::Counter* m_alarms_;
  obs::Counter* m_vote_transitions_;
  obs::Counter* m_journal_resumes_;
  obs::Counter* m_resume_samples_;
  obs::Counter* m_quarantined_;
  obs::Counter* m_journal_failures_;
  obs::Histogram* m_batch_latency_;
  bool degraded_ = false;
  std::uint64_t quarantined_ = 0;
  std::uint64_t journal_failures_ = 0;
  std::vector<std::string> serials_;
  std::vector<DriveVoteState> states_;
  std::vector<double> scratch_;  // interval model outputs, reused per call

  // Shadow scoring state. The slot is the only cross-thread member
  // (controller installs, scoring calls pin); the voting states and
  // scratch follow the scorer's single-caller contract.
  RcuSlot<const ShadowSlot> shadow_slot_;
  std::uint64_t shadow_installs_ = 0;  // controller-side epoch source
  std::uint64_t shadow_epoch_seen_ = 0;
  std::vector<DriveVoteState> shadow_states_;
  std::vector<double> shadow_scratch_;
  std::atomic<std::uint64_t> sh_samples_{0};
  std::atomic<std::uint64_t> sh_divergence_{0};
  std::atomic<std::uint64_t> sh_vote_flips_{0};
  std::atomic<std::uint64_t> sh_alarm_delta_{0};
  obs::Counter* m_shadow_samples_;
  obs::Counter* m_shadow_divergence_;
  obs::Counter* m_shadow_vote_flips_;
  obs::Counter* m_shadow_alarm_delta_;

  // Journaled streaming state.
  store::TelemetryStore* journal_ = nullptr;
  std::vector<std::uint32_t> journal_ids_;   // fleet index -> store drive id
  std::vector<smart::DriveRecord> history_;  // bounded raw-sample windows
  std::vector<smart::Sample> ingest_buf_;    // ingest_drive scratch
};

}  // namespace hdd::core
