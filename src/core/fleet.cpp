#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "smart/features.h"
#include "store/telemetry_store.h"

namespace hdd::core {

FleetScorer::FleetScorer(const SampleScorer& scorer, FleetScorerConfig config)
    : scorer_(&scorer), config_(std::move(config)) {
  HDD_REQUIRE(config_.features.size() == scorer_->num_features(),
              "fleet feature set width must match the model");
  HDD_REQUIRE(config_.block_rows >= 1, "block_rows must be >= 1");
  HDD_REQUIRE(config_.vote.voters >= 1, "voters must be >= 1");
  HDD_REQUIRE(config_.history_hours >= 0, "history_hours must be >= 0");
  if (config_.history_hours > 0) {
    history_hours_ = config_.history_hours;
  } else {
    int max_interval = 0;
    for (const auto& spec : config_.features.specs) {
      max_interval = std::max(max_interval, spec.change_interval_hours);
    }
    history_hours_ = std::max(24, 4 * max_interval);
  }
  obs::Registry& reg =
      config_.metrics != nullptr ? *config_.metrics : obs::Registry::global();
  m_samples_scored_ = &reg.counter("hdd_fleet_samples_scored_total",
                                   "Feature rows scored through the model.");
  m_alarms_ = &reg.counter("hdd_fleet_alarms_total",
                           "Drives transitioned to the alarmed state.");
  m_vote_transitions_ =
      &reg.counter("hdd_fleet_vote_transitions_total",
                   "Sample-level vote flips (healthy<->failing) across "
                   "consecutive outputs of a drive.");
  m_journal_resumes_ = &reg.counter(
      "hdd_fleet_journal_resume_total",
      "resume_from() recoveries replayed out of a telemetry store.");
  m_resume_samples_ = &reg.counter(
      "hdd_fleet_resume_samples_total",
      "Samples replayed from the journal while resuming voting state.");
  m_quarantined_ = &reg.counter(
      "hdd_fleet_quarantined_samples_total",
      "Samples quarantined at ingest (non-finite or out-of-domain values).");
  m_journal_failures_ = &reg.counter(
      "hdd_fleet_journal_append_failures_total",
      "Journal append/flush failures tolerated in degraded mode.");
  m_batch_latency_ = &reg.histogram(
      "hdd_fleet_batch_latency_ns",
      "Wall time of one observe_interval/observe_samples call (ns).");
  m_shadow_samples_ = &reg.counter(
      "hdd_pipeline_shadow_samples_total",
      "Live feature rows scored by a shadow candidate model.");
  m_shadow_divergence_ = &reg.counter(
      "hdd_pipeline_shadow_divergence_total",
      "Shadow rows whose failure vote disagreed with the incumbent's.");
  m_shadow_vote_flips_ = &reg.counter(
      "hdd_pipeline_shadow_vote_flips_total",
      "Shadow pushes after which the rolling window verdict disagreed "
      "with the incumbent's.");
  m_shadow_alarm_delta_ = &reg.counter(
      "hdd_pipeline_shadow_alarm_delta_total",
      "Pushes where exactly one of incumbent/shadow raised its alarm.");
}

FleetScorer::ScoreCtx FleetScorer::make_ctx(bool live) {
  ScoreCtx ctx;
  // Pin the incumbent once per public call: a concurrent hot swap
  // (SwappableScorer) retires the old generation only after every pin
  // drops, and no batch ever mixes generations.
  ctx.pinned = scorer_->pin();
  ctx.model = ctx.pinned != nullptr ? ctx.pinned.get() : scorer_;
  if (!live) return ctx;
  ctx.shadow_pin = shadow_slot_.load();
  if (ctx.shadow_pin == nullptr || ctx.shadow_pin->model == nullptr) {
    return ctx;
  }
  // Single-threaded preamble (callers serialize per scorer): a freshly
  // installed candidate starts from cold voting windows.
  if (ctx.shadow_pin->epoch != shadow_epoch_seen_) {
    shadow_epoch_seen_ = ctx.shadow_pin->epoch;
    shadow_states_.assign(states_.size(), DriveVoteState(config_.vote));
  } else if (shadow_states_.size() < states_.size()) {
    shadow_states_.resize(states_.size(), DriveVoteState(config_.vote));
  }
  ctx.shadow = ctx.shadow_pin->model.get();
  return ctx;
}

void FleetScorer::flush_shadow(const ShadowTally& t) {
  if (t.samples == 0) return;
  sh_samples_.fetch_add(t.samples, std::memory_order_relaxed);
  m_shadow_samples_->inc(t.samples);
  if (t.divergence > 0) {
    sh_divergence_.fetch_add(t.divergence, std::memory_order_relaxed);
    m_shadow_divergence_->inc(t.divergence);
  }
  if (t.vote_flips > 0) {
    sh_vote_flips_.fetch_add(t.vote_flips, std::memory_order_relaxed);
    m_shadow_vote_flips_->inc(t.vote_flips);
  }
  if (t.alarm_delta > 0) {
    sh_alarm_delta_.fetch_add(t.alarm_delta, std::memory_order_relaxed);
    m_shadow_alarm_delta_->inc(t.alarm_delta);
  }
}

void FleetScorer::shadow_push(const ScoreCtx& /*ctx*/, std::size_t i,
                              std::int64_t hour, double shadow_output,
                              double primary_output, bool primary_raised,
                              ShadowTally& tally) {
  ++tally.samples;
  // Sample-level vote comparison through the same float rounding push()
  // applies, so "divergence" means exactly "this row would vote
  // differently".
  const bool p_fail = static_cast<float>(primary_output) < 0.0f;
  const bool s_fail = static_cast<float>(shadow_output) < 0.0f;
  if (p_fail != s_fail) ++tally.divergence;
  const bool shadow_raised = shadow_states_[i].push(hour, shadow_output);
  if (shadow_states_[i].current_decision() !=
      states_[i].current_decision()) {
    ++tally.vote_flips;
  }
  if (shadow_raised != primary_raised) ++tally.alarm_delta;
}

void FleetScorer::set_shadow(std::shared_ptr<const SampleScorer> candidate) {
  if (candidate == nullptr) {
    shadow_slot_.store(nullptr);
    return;
  }
  HDD_REQUIRE(candidate->num_features() == config_.features.size(),
              "shadow model width must match the fleet feature set");
  // One controller installs shadows (the retrain loop); the epoch bump is
  // what tells the next scoring call to reset shadow voting state.
  auto slot = std::make_shared<const ShadowSlot>(
      ShadowSlot{std::move(candidate), ++shadow_installs_});
  shadow_slot_.store(std::move(slot));
}

bool FleetScorer::has_shadow() const {
  return shadow_slot_.load() != nullptr;
}

FleetScorer::ShadowStats FleetScorer::shadow_stats() const {
  ShadowStats s;
  s.samples = sh_samples_.load(std::memory_order_relaxed);
  s.divergence = sh_divergence_.load(std::memory_order_relaxed);
  s.vote_flips = sh_vote_flips_.load(std::memory_order_relaxed);
  s.alarm_delta = sh_alarm_delta_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& FleetScorer::pool() const {
  return config_.pool ? *config_.pool : ThreadPool::global();
}

std::size_t FleetScorer::add_drive(std::string serial) {
  smart::DriveRecord rec;
  rec.serial = serial;
  history_.push_back(std::move(rec));
  if (journal_ != nullptr) {
    journal_ids_.push_back(journal_->register_drive(serial));
  }
  serials_.push_back(std::move(serial));
  states_.emplace_back(config_.vote);
  states_.back().set_metrics(m_vote_transitions_, m_alarms_);
  return states_.size() - 1;
}

void FleetScorer::observe_interval(std::span<const float> xs,
                                   std::int64_t hour) {
  const auto nf = static_cast<std::size_t>(scorer_->num_features());
  HDD_REQUIRE(xs.size() == states_.size() * nf,
              "snapshot must hold one feature row per registered drive");
  const std::size_t n = states_.size();
  if (n == 0) return;
  const obs::ScopedTimer timer(m_batch_latency_);
  m_samples_scored_->inc(n);
  const std::size_t block = config_.block_rows;
  const std::size_t n_blocks = (n + block - 1) / block;
  const ScoreCtx ctx = make_ctx(/*live=*/true);
  scratch_.resize(n);  // reused across intervals; no steady-state allocation
  if (ctx.shadow != nullptr) shadow_scratch_.resize(n);
  pool().parallel_for(0, n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, n);
    // Blocks own disjoint slices of the scratch buffers and disjoint
    // states, so no cross-thread writes.
    ctx.model->predict_batch(
        xs.subspan(lo * nf, (hi - lo) * nf),
        std::span<double>(scratch_.data() + lo, hi - lo));
    if (ctx.shadow != nullptr) {
      ctx.shadow->predict_batch(
          xs.subspan(lo * nf, (hi - lo) * nf),
          std::span<double>(shadow_scratch_.data() + lo, hi - lo));
    }
    ShadowTally tally;
    for (std::size_t i = lo; i < hi; ++i) {
      const bool raised = states_[i].push(hour, scratch_[i]);
      if (ctx.shadow != nullptr) {
        shadow_push(ctx, i, hour, shadow_scratch_[i], scratch_[i], raised,
                    tally);
      }
    }
    flush_shadow(tally);
  });
}

void FleetScorer::observe_interval(const data::DataMatrix& m,
                                   std::int64_t hour) {
  HDD_REQUIRE(m.rows() == states_.size(),
              "snapshot must hold one row per registered drive");
  HDD_REQUIRE(m.cols() == scorer_->num_features(),
              "snapshot width must match the model");
  observe_interval(m.features(), hour);
}

void FleetScorer::attach_journal(store::TelemetryStore* store) {
  journal_ = store;
  journal_ids_.clear();
  if (journal_ == nullptr) return;
  journal_ids_.reserve(serials_.size());
  for (const std::string& s : serials_) {
    journal_ids_.push_back(journal_->register_drive(s));
  }
}

void FleetScorer::note_journal_failure(const std::string& message) {
  degraded_ = true;
  ++journal_failures_;
  m_journal_failures_->inc();
  log_message(LogLevel::kWarn, message);
}

void FleetScorer::push_history(std::size_t i, const smart::Sample& sample) {
  auto& hist = history_[i].samples;
  hist.push_back(sample);
  // One deterministic trim rule shared by live scoring and resume_from():
  // keep samples within history_hours_ of the newest. Identical windows ->
  // identical feature rows -> identical alarms.
  const std::int64_t min_hour = sample.hour - history_hours_;
  std::size_t drop = 0;
  while (drop + 1 < hist.size() && hist[drop].hour < min_hour) ++drop;
  if (drop > 0) hist.erase(hist.begin(), hist.begin() + drop);
}

void FleetScorer::observe_samples(std::span<const smart::Sample> samples,
                                  std::int64_t hour) {
  HDD_REQUIRE(samples.size() == states_.size(),
              "interval must hold one sample per registered drive");
  const std::size_t n = states_.size();
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    HDD_REQUIRE(samples[i].hour == hour,
                "every sample must carry the interval hour");
  }
  // skip[i]: drop drive i's sample this interval — everywhere (journal,
  // history, voting), so in-memory state never diverges from what a
  // resume_from() over the journal would rebuild.
  std::vector<char> skip(n, 0);
  if (config_.quarantine != QuarantinePolicy::kOff) {
    const bool domain = config_.quarantine == QuarantinePolicy::kFullDomain;
    std::size_t nq = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto fault = smart::classify_sample(samples[i], domain);
      if (fault == smart::SampleFault::kNone) continue;
      skip[i] = 1;
      ++nq;
      log_message(LogLevel::kWarn,
                  "fleet: quarantined sample for drive " + serials_[i] +
                      " at hour " + std::to_string(hour) + " (" +
                      smart::sample_fault_name(fault) + ")");
    }
    if (nq > 0) {
      m_quarantined_->inc(nq);
      quarantined_ += nq;
    }
  }
  if (journal_ != nullptr) {
    // Durability before scoring: the sample is on disk before it can raise
    // an alarm. Skipping hours the store already holds makes re-observing
    // an interval after resume_from() idempotent. An append failure
    // (sealed/full segment, I/O error) downgrades to a skip: the drive
    // misses this interval, the fleet keeps scoring. A simulated crash
    // (io::CrashPoint, deliberately not a std::exception) still propagates.
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i] || journal_->drive(journal_ids_[i]).last_hour >= hour) {
        continue;
      }
      try {
        journal_->append(journal_ids_[i], samples[i]);
      } catch (const std::exception& e) {
        skip[i] = 1;
        note_journal_failure("fleet: journal append failed for drive " +
                             serials_[i] + " at hour " +
                             std::to_string(hour) +
                             ", skipping sample (degraded): " + e.what());
      }
    }
    try {
      journal_->flush();
    } catch (const std::exception& e) {
      // Appended but not durable: scoring proceeds; a crash before the next
      // successful flush loses at most this tail, which resume_from()'s
      // partial-interval rule already handles.
      note_journal_failure(
          std::string("fleet: journal flush failed (degraded): ") + e.what());
    }
  }
  const obs::ScopedTimer timer(m_batch_latency_);
  const auto nf = static_cast<std::size_t>(config_.features.size());
  const std::size_t block = config_.block_rows;
  const std::size_t n_blocks = (n + block - 1) / block;
  const ScoreCtx ctx = make_ctx(/*live=*/true);
  scratch_.resize(n);
  if (ctx.shadow != nullptr) shadow_scratch_.resize(n);
  std::atomic<std::size_t> scored{0};
  pool().parallel_for(0, n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, n);
    // Blocks own disjoint index ranges, history slots and scratch slices;
    // skipped rows are compacted out of the batch but keep their states
    // untouched.
    std::vector<std::size_t> rows;
    rows.reserve(hi - lo);
    std::vector<float> xbuf;
    xbuf.reserve((hi - lo) * nf);
    for (std::size_t i = lo; i < hi; ++i) {
      if (skip[i]) continue;
      rows.push_back(i);
      push_history(i, samples[i]);
      const std::size_t last = history_[i].samples.size() - 1;
      smart::extract_features_block(history_[i], last, last + 1,
                                    config_.features, xbuf);
    }
    if (rows.empty()) return;
    ctx.model->predict_batch(
        xbuf, std::span<double>(scratch_.data() + lo, rows.size()));
    if (ctx.shadow != nullptr) {
      ctx.shadow->predict_batch(
          xbuf, std::span<double>(shadow_scratch_.data() + lo, rows.size()));
    }
    ShadowTally tally;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const bool raised = states_[rows[k]].push(hour, scratch_[lo + k]);
      if (ctx.shadow != nullptr) {
        shadow_push(ctx, rows[k], hour, shadow_scratch_[lo + k],
                    scratch_[lo + k], raised, tally);
      }
    }
    flush_shadow(tally);
    scored.fetch_add(rows.size(), std::memory_order_relaxed);
  });
  m_samples_scored_->inc(scored.load());
}

FleetScorer::IngestResult FleetScorer::ingest_drive(
    std::size_t i, std::span<const smart::Sample> samples) {
  HDD_REQUIRE(i < states_.size(), "ingest for an unregistered drive");
  IngestResult res;
  if (samples.empty()) return res;
  const obs::ScopedSpan span("fleet.ingest", "samples",
                             static_cast<std::uint64_t>(samples.size()));
  const obs::ScopedTimer timer(m_batch_latency_);
  std::vector<smart::Sample>& kept = ingest_buf_;
  kept.clear();
  kept.reserve(samples.size());
  std::int64_t last = -1;
  if (journal_ != nullptr) {
    last = journal_->drive(journal_ids_[i]).last_hour;
  } else if (!history_[i].samples.empty()) {
    last = history_[i].samples.back().hour;
  }
  const bool domain = config_.quarantine == QuarantinePolicy::kFullDomain;
  for (const smart::Sample& s : samples) {
    if (s.hour <= last) {
      ++res.stale;  // re-sent after a resume, or out of order: drop
      continue;
    }
    if (config_.quarantine != QuarantinePolicy::kOff &&
        smart::classify_sample(s, domain) != smart::SampleFault::kNone) {
      ++res.quarantined;
      continue;
    }
    kept.push_back(s);
    last = s.hour;
  }
  if (res.quarantined > 0) {
    m_quarantined_->inc(res.quarantined);
    quarantined_ += res.quarantined;
  }
  if (kept.empty()) return res;
  if (journal_ != nullptr) {
    // Durability (to the OS, not the platter) before scoring. A failure
    // skips the whole batch in memory; chunks that landed before the
    // failure are stale-skipped on the next send, and degraded() records
    // that alarms since may rest on partial telemetry. A simulated crash
    // (io::CrashPoint, not a std::exception) still propagates.
    try {
      journal_->append_batch(journal_ids_[i], kept.data(), kept.size());
      journal_->flush_to_os();
    } catch (const std::exception& e) {
      res.journal_failed = true;
      note_journal_failure("fleet: journal batch append failed for drive " +
                           serials_[i] + ", dropping batch (degraded): " +
                           e.what());
      return res;
    }
  }
  {
    const obs::ScopedSpan score_span("fleet.score", "samples",
                                     static_cast<std::uint64_t>(kept.size()));
    replay_drive_samples(make_ctx(/*live=*/true), i, kept);
  }
  res.accepted = kept.size();
  return res;
}

void FleetScorer::replay_drive_samples(
    const ScoreCtx& ctx, std::size_t i,
    std::span<const smart::Sample> samples) {
  // No early exit at the first alarm: history must stay current through the
  // whole log so post-resume feature rows match the uninterrupted run
  // (push() is a no-op once alarmed, exactly as in live streaming).
  const std::size_t block = config_.block_rows;
  std::vector<float> xbuf;
  std::vector<double> obuf;
  std::vector<double> sbuf;
  ShadowTally tally;
  for (std::size_t base = 0; base < samples.size(); base += block) {
    const std::size_t hi = std::min(base + block, samples.size());
    xbuf.clear();
    for (std::size_t k = base; k < hi; ++k) {
      push_history(i, samples[k]);
      const std::size_t last = history_[i].samples.size() - 1;
      smart::extract_features_block(history_[i], last, last + 1,
                                    config_.features, xbuf);
    }
    obuf.resize(hi - base);
    ctx.model->predict_batch(xbuf, obuf);
    if (ctx.shadow != nullptr) {
      sbuf.resize(hi - base);
      ctx.shadow->predict_batch(xbuf, sbuf);
    }
    m_samples_scored_->inc(hi - base);
    for (std::size_t k = base; k < hi; ++k) {
      const bool raised = states_[i].push(samples[k].hour, obuf[k - base]);
      if (ctx.shadow != nullptr) {
        shadow_push(ctx, i, samples[k].hour, sbuf[k - base], obuf[k - base],
                    raised, tally);
      }
    }
  }
  flush_shadow(tally);
}

FleetScorer::ResumeResult FleetScorer::resume_from(store::TelemetryStore& store,
                                                   bool drop_partial_tail) {
  const std::size_t n_store = store.drive_count();
  if (states_.empty()) {
    for (std::uint32_t id = 0; id < n_store; ++id) {
      add_drive(store.drive(id).serial);
    }
  } else {
    HDD_REQUIRE(states_.size() == n_store,
                "registry size must match the store");
    for (std::uint32_t id = 0; id < n_store; ++id) {
      HDD_REQUIRE(serials_[id] == store.drive(id).serial,
                  "registry must match the store drive for drive");
    }
  }
  reset();

  std::vector<std::vector<smart::Sample>> per(states_.size());
  for (std::uint32_t id = 0; id < n_store; ++id) {
    per[id].reserve(store.drive(id).n_samples);
  }
  store.scan([&](std::uint32_t drive, const smart::Sample& s) {
    per[drive].push_back(s);
  });

  std::int64_t hmax = -1;
  for (const auto& v : per) {
    if (!v.empty()) hmax = std::max(hmax, v.back().hour);
  }
  std::size_t partial_dropped = 0;
  if (drop_partial_tail && hmax >= 0) {
    bool all_reached = true;
    for (const auto& v : per) {
      if (v.empty() || v.back().hour != hmax) {
        all_reached = false;
        break;
      }
    }
    if (!all_reached) {
      // A crash mid-append left hour hmax on disk for only some drives.
      // Drop the torn interval everywhere; re-observing hmax completes it.
      for (auto& v : per) {
        while (!v.empty() && v.back().hour == hmax) {
          v.pop_back();
          ++partial_dropped;
        }
      }
    }
  }

  // Replayed telemetry was already scored live once; shadows never see it
  // (live=false), so the parallel replay touches no shadow state.
  const ScoreCtx ctx = make_ctx(/*live=*/false);
  pool().parallel_for(0, per.size(), [&](std::size_t i) {
    replay_drive_samples(ctx, i, per[i]);
  });

  ResumeResult r;
  r.drives = per.size();
  r.partial_dropped = partial_dropped;
  for (const auto& v : per) {
    r.samples_replayed += v.size();
    if (!v.empty()) r.last_hour = std::max(r.last_hour, v.back().hour);
  }
  m_journal_resumes_->inc();
  m_resume_samples_->inc(r.samples_replayed);
  return r;
}

std::size_t FleetScorer::alarm_count() const {
  std::size_t n = 0;
  for (const DriveVoteState& s : states_) n += s.alarmed() ? 1 : 0;
  return n;
}

std::vector<std::size_t> FleetScorer::alarmed_drives() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].alarmed()) out.push_back(i);
  }
  return out;
}

void FleetScorer::reset() {
  for (DriveVoteState& s : states_) s.reset();
  for (smart::DriveRecord& h : history_) h.samples.clear();
}

eval::DriveOutcome FleetScorer::replay_drive(const SampleScorer& model,
                                             const smart::DriveRecord& drive,
                                             std::size_t begin) const {
  DriveVoteState vote(config_.vote);
  vote.set_metrics(m_vote_transitions_, m_alarms_);
  return eval::detect_record(
      drive, begin, config_.features,
      [&](std::span<const float> xs, std::span<double> out) {
        model.predict_batch(xs, out);
        m_samples_scored_->inc(out.size());
      },
      vote, config_.block_rows);
}

std::vector<eval::DriveOutcome> FleetScorer::replay(
    const data::DriveDataset& dataset) const {
  // Pin once per call: the whole replay scores through one generation.
  const auto pin = scorer_->pin();
  const SampleScorer& model = pin != nullptr ? *pin : *scorer_;
  std::vector<eval::DriveOutcome> out(dataset.drives.size());
  pool().parallel_for(0, dataset.drives.size(), [&](std::size_t i) {
    out[i] = replay_drive(model, dataset.drives[i], 0);
  });
  return out;
}

eval::EvalResult FleetScorer::evaluate(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split) const {
  const auto jobs = eval::holdout_jobs(dataset, split);
  const auto pin = scorer_->pin();
  const SampleScorer& model = pin != nullptr ? *pin : *scorer_;
  std::vector<eval::DriveOutcome> outcomes(jobs.size());
  pool().parallel_for(0, jobs.size(), [&](std::size_t j) {
    outcomes[j] =
        replay_drive(model, dataset.drives[jobs[j].drive], jobs[j].begin);
  });
  eval::EvalResult r;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& d = dataset.drives[jobs[j].drive];
    r.add(d.failed, d.fail_hour, outcomes[j]);
  }
  return r;
}

}  // namespace hdd::core
