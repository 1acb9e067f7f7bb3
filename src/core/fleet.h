// FleetScorer — batched, multi-threaded scoring of a whole drive fleet.
//
// The paper's deployment story (Section V-E) is a monitoring node that
// scores every drive in a data center on each SMART sample interval. This
// engine serves that workload in three modes:
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
//    samples, a fleet interval at a time (observe_samples) or a drive's
//    batch at a time (ingest_drive, the serve path).
//
// Every live raw sample runs one per-drive pipeline: admit -> journal ->
// history -> extract -> predict -> vote. A sample is admitted when its hour
// is after the drive's newest in-memory hour and it passes the
// QuarantinePolicy; the journal step appends the admitted samples the
// store does not hold yet, and a failed append leaves them unscored.
// resume_from() runs the journal through the same history -> extract ->
// predict -> vote steps, so a resumed run raises byte-identical alarms and
// a re-sent or re-observed sample is scored exactly once.
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
  // reading, all stamped `hour`, through the per-drive pipeline (see the
  // file comment), then fsyncs the journal once. Re-observing an interval
  // changes nothing: its samples are no longer after the drives' newest
  // hours. After resume_from() dropped a torn interval, re-observing it
  // scores it without journaling the hours the store already holds.
  //
  // Graceful degradation: samples failing the quarantine policy, and
  // samples whose journal append fails, are counted
  // (hdd_fleet_quarantined_samples_total /
  // hdd_fleet_journal_append_failures_total), logged, and skipped for this
  // interval — the rest of the fleet still scores. Journal failures also
  // latch degraded(). A skipped sample is skipped everywhere (history,
  // voting), so in-memory state always matches what a resume would replay.
  void observe_samples(std::span<const smart::Sample> samples,
                       std::int64_t hour);

  struct IngestResult {
    std::size_t accepted = 0;     // scored (journaled first, if attached)
    std::size_t quarantined = 0;  // failed the quarantine policy
    std::size_t stale = 0;        // at or before the drive's newest hour
    bool journal_failed = false;  // batch skipped; degraded() is latched
  };

  // Per-drive batched ingest — the serve path, where drives report on
  // their own clocks instead of fleet-lockstep intervals. Samples must be
  // hour-ascending; anything at or before the drive's newest in-memory
  // hour is dropped as stale, which makes re-sending a batch after a
  // crash/resume or a journal failure idempotent. The admitted samples the
  // store does not hold yet are appended as one batched write (flush_to_os,
  // not fsync — the daemon fsyncs on seal/shutdown); a failed write drops
  // the whole batch, to be re-sent. Not thread-safe: callers serialize per
  // scorer (serve gives each shard its own scorer + store).
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
  // same history -> extract -> predict -> vote kernel as live ingest. With an
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
  // One scored row's key: the drive whose window it votes in, and its hour.
  struct RowTag {
    std::size_t drive = 0;
    std::int64_t hour = 0;
  };
  // Caller-owned buffers of score_block: feature rows (row-major), their
  // tags and the model outputs. Grown on demand and never shrunk, so
  // steady-state scoring does not allocate.
  struct Scratch {
    std::vector<float> x;
    std::vector<RowTag> tags;
    std::vector<double> out;
    std::vector<double> shadow_out;
    void fit(std::size_t rows, std::size_t nf);
  };

  // `live` additionally pins the shadow and (single-threaded) refreshes
  // shadow voting state for a newly installed candidate.
  ScoreCtx make_ctx(bool live);
  void flush_shadow(const ShadowTally& t);

  eval::DriveOutcome replay_drive(const SampleScorer& model,
                                  const smart::DriveRecord& drive,
                                  std::size_t begin) const;
  ThreadPool& pool() const;
  // A tolerated journal append/flush failure: latches degraded(), counts
  // it and logs `message` as a warning.
  void note_journal_failure(const std::string& message);

  // --- The per-drive pipeline -----------------------------------------------

  // Newest hour in drive i's in-memory history; -1 when it holds none.
  std::int64_t newest_hour(std::size_t i) const {
    return history_[i].samples.empty() ? -1 : history_[i].samples.back().hour;
  }
  // The admit rule: `s` must be after `newest` and pass the quarantine
  // policy. A rejected sample is tallied in `dropped` (a quarantined one is
  // also counted and logged).
  bool admit(std::size_t i, const smart::Sample& s, std::int64_t newest,
             IngestResult& dropped);
  // The journal step: appends the admitted samples after the store's
  // last_hour for drive i (then flush_to_os when `to_os`). Returns false
  // after note_journal_failure; the caller then scores none of them.
  bool journal_append(std::size_t i, std::span<const smart::Sample> admitted,
                      bool to_os);
  // history -> extract: pushes `s` into drive i's bounded window and
  // writes its feature row to `row`.
  void extract_row(std::size_t i, const smart::Sample& s, float* row);
  // predict -> vote: scores rows [lo, lo + n) of `s` (features `xs`) with
  // the incumbent and the shadow, pushes each output into its drive's
  // incumbent and shadow windows and tallies their divergence.
  void score_block(const ScoreCtx& ctx, std::span<const float> xs,
                   Scratch& s, std::size_t lo, std::size_t n);
  // history -> extract -> predict -> vote over one drive's admitted
  // samples, block_rows at a time.
  void score_drive(const ScoreCtx& ctx, std::size_t i,
                   std::span<const smart::Sample> samples, Scratch& s);

  const SampleScorer* scorer_;
  FleetScorerConfig config_;
  // Raw-sample hours kept per drive: 4x the feature set's largest change
  // interval, at least 24 h (one rule for live scoring and resume_from()).
  int history_hours_ = 0;

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
  // The live paths' score_block buffers; the blocks of one parallel call
  // use disjoint slices.
  Scratch scratch_;

  // Shadow scoring state. The slot is the only cross-thread member
  // (controller installs, scoring calls pin); the voting states and
  // scratch follow the scorer's single-caller contract.
  RcuSlot<const ShadowSlot> shadow_slot_;
  std::uint64_t shadow_installs_ = 0;  // controller-side epoch source
  std::uint64_t shadow_epoch_seen_ = 0;
  std::vector<DriveVoteState> shadow_states_;
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
