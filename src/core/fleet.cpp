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
  int max_interval = 0;
  for (const auto& spec : config_.features.specs) {
    max_interval = std::max(max_interval, spec.change_interval_hours);
  }
  history_hours_ = std::max(24, 4 * max_interval);
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
  const ScoreCtx ctx = make_ctx(/*live=*/true);
  scratch_.fit(n, 0);
  for (std::size_t i = 0; i < n; ++i) scratch_.tags[i] = {i, hour};
  const std::size_t block = config_.block_rows;
  pool().parallel_for(0, (n + block - 1) / block, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, n);
    score_block(ctx, xs.subspan(lo * nf, (hi - lo) * nf), scratch_, lo,
                hi - lo);
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

void FleetScorer::Scratch::fit(std::size_t rows, std::size_t nf) {
  if (x.size() < rows * nf) x.resize(rows * nf);
  if (tags.size() < rows) {
    tags.resize(rows);
    out.resize(rows);
    shadow_out.resize(rows);
  }
}

bool FleetScorer::admit(std::size_t i, const smart::Sample& s,
                        std::int64_t newest, IngestResult& dropped) {
  // Re-sent after a resume or a journal failure, re-observed, or out of
  // order: already scored (or deliberately skipped) once.
  if (s.hour <= newest) {
    ++dropped.stale;
    return false;
  }
  if (config_.quarantine == QuarantinePolicy::kOff) return true;
  const auto fault = smart::classify_sample(
      s, config_.quarantine == QuarantinePolicy::kFullDomain);
  if (fault == smart::SampleFault::kNone) return true;
  ++dropped.quarantined;
  m_quarantined_->inc();
  ++quarantined_;
  log_message(LogLevel::kWarn, "fleet: quarantined sample for drive " +
                                   serials_[i] + " at hour " +
                                   std::to_string(s.hour) + " (" +
                                   smart::sample_fault_name(fault) + ")");
  return false;
}

bool FleetScorer::journal_append(std::size_t i,
                                 std::span<const smart::Sample> admitted,
                                 bool to_os) {
  if (journal_ == nullptr) return true;
  // Durability before scoring: a sample is on disk before it can raise an
  // alarm. Hours the store already holds — a torn interval resume_from()
  // dropped, the indexed prefix of a batch whose append failed — are scored
  // on re-send but not written twice. A failure (sealed/full segment, I/O
  // error) skips the samples; a simulated crash (io::CrashPoint,
  // deliberately not a std::exception) still propagates.
  const std::int64_t held = journal_->drive(journal_ids_[i]).last_hour;
  std::size_t k = 0;
  while (k < admitted.size() && admitted[k].hour <= held) ++k;
  if (k == admitted.size()) return true;
  try {
    journal_->append_batch(journal_ids_[i], admitted.data() + k,
                           admitted.size() - k);
    if (to_os) journal_->flush_to_os();
  } catch (const std::exception& e) {
    note_journal_failure("fleet: journal append failed for drive " +
                         serials_[i] + " at hour " +
                         std::to_string(admitted[k].hour) + ", skipping " +
                         std::to_string(admitted.size()) +
                         " sample(s) (degraded): " + e.what());
    return false;
  }
  return true;
}

void FleetScorer::extract_row(std::size_t i, const smart::Sample& s,
                              float* row) {
  auto& hist = history_[i].samples;
  hist.push_back(s);
  // One deterministic trim rule shared by live scoring and resume_from():
  // keep samples within history_hours_ of the newest. Identical windows ->
  // identical feature rows -> identical alarms.
  const std::int64_t min_hour = s.hour - history_hours_;
  std::size_t drop = 0;
  while (drop + 1 < hist.size() && hist[drop].hour < min_hour) ++drop;
  if (drop > 0) hist.erase(hist.begin(), hist.begin() + drop);
  smart::extract_features_row(history_[i], hist.size() - 1, config_.features,
                              row);
}

void FleetScorer::score_block(const ScoreCtx& ctx, std::span<const float> xs,
                              Scratch& s, std::size_t lo, std::size_t n) {
  if (n == 0) return;
  const std::span<double> out(s.out.data() + lo, n);
  const std::span<double> shadow_out(s.shadow_out.data() + lo, n);
  ctx.model->predict_batch(xs, out);
  if (ctx.shadow != nullptr) ctx.shadow->predict_batch(xs, shadow_out);
  ShadowTally tally;
  for (std::size_t k = 0; k < n; ++k) {
    const RowTag& t = s.tags[lo + k];
    const bool raised = states_[t.drive].push(t.hour, out[k]);
    if (ctx.shadow == nullptr) continue;
    // Sample-level vote comparison through the same float rounding push()
    // applies, so "divergence" means exactly "this row would vote
    // differently".
    ++tally.samples;
    if ((static_cast<float>(out[k]) < 0.0f) !=
        (static_cast<float>(shadow_out[k]) < 0.0f)) {
      ++tally.divergence;
    }
    DriveVoteState& shadow = shadow_states_[t.drive];
    if (shadow.push(t.hour, shadow_out[k]) != raised) ++tally.alarm_delta;
    if (shadow.current_decision() != states_[t.drive].current_decision()) {
      ++tally.vote_flips;
    }
  }
  flush_shadow(tally);
  m_samples_scored_->inc(n);
}

void FleetScorer::score_drive(const ScoreCtx& ctx, std::size_t i,
                              std::span<const smart::Sample> samples,
                              Scratch& s) {
  // No early exit at the first alarm: history must stay current through the
  // whole log so post-resume feature rows match the uninterrupted run
  // (push() is a no-op once alarmed, exactly as in live streaming).
  const auto nf = static_cast<std::size_t>(config_.features.size());
  const std::size_t block = config_.block_rows;
  s.fit(std::min(block, samples.size()), nf);
  for (std::size_t base = 0; base < samples.size(); base += block) {
    const std::size_t n = std::min(block, samples.size() - base);
    for (std::size_t k = 0; k < n; ++k) {
      const smart::Sample& sample = samples[base + k];
      extract_row(i, sample, s.x.data() + k * nf);
      s.tags[k] = {i, sample.hour};
    }
    score_block(ctx, std::span<const float>(s.x.data(), n * nf), s, 0, n);
  }
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
  // admit -> journal, drive by drive; the drives that pass are compacted
  // into the first m scratch tags.
  const auto nf = static_cast<std::size_t>(config_.features.size());
  scratch_.fit(n, nf);
  std::size_t m = 0;
  IngestResult dropped;
  for (std::size_t i = 0; i < n; ++i) {
    if (admit(i, samples[i], newest_hour(i), dropped) &&
        journal_append(i, samples.subspan(i, 1), /*to_os=*/false)) {
      scratch_.tags[m++] = {i, hour};
    }
  }
  if (journal_ != nullptr) {
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
  // history -> extract -> predict -> vote in parallel blocks of rows. Each
  // drive holds at most one row, so blocks own disjoint history windows,
  // voting states and scratch slices.
  const obs::ScopedTimer timer(m_batch_latency_);
  const ScoreCtx ctx = make_ctx(/*live=*/true);
  const std::size_t block = config_.block_rows;
  pool().parallel_for(0, (m + block - 1) / block, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, m);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = scratch_.tags[k].drive;
      extract_row(i, samples[i], scratch_.x.data() + k * nf);
    }
    score_block(ctx,
                std::span<const float>(scratch_.x.data() + lo * nf,
                                       (hi - lo) * nf),
                scratch_, lo, hi - lo);
  });
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
  for (const smart::Sample& s : samples) {
    if (admit(i, s, kept.empty() ? newest_hour(i) : kept.back().hour, res)) {
      kept.push_back(s);
    }
  }
  if (kept.empty()) return res;
  if (!journal_append(i, kept, /*to_os=*/true)) {
    res.journal_failed = true;
    return res;
  }
  {
    const obs::ScopedSpan score_span("fleet.score", "samples",
                                     static_cast<std::uint64_t>(kept.size()));
    score_drive(make_ctx(/*live=*/true), i, kept, scratch_);
  }
  res.accepted = kept.size();
  return res;
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
    Scratch s;  // per task: drives replay concurrently
    score_drive(ctx, i, per[i], s);
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
