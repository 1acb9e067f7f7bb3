// TelemetryStore — embedded crash-safe store for SMART telemetry.
//
// The paper's deployment loop (Section V-E) is a monitoring node that
// scores every drive on each SMART interval and periodically retrains from
// accumulated history. This store is the durable substrate for both: an
// append-only log of sample records in CRC-framed segments (format.h),
// with a per-drive in-memory index rebuilt on open.
//
// Guarantees:
//  * Appends are sequential writes to the highest segment; segments rotate
//    at StoreOptions::segment_bytes. flush() pushes buffered appends to the
//    OS (fsync_appends trades throughput for power-loss durability).
//  * Opening recovers deterministically from a crash: a torn tail record is
//    truncated away (the log ends at the last complete record); a record
//    whose CRC fails is skipped and scanning of that segment stops — later
//    segments still load. Recovery never throws for corrupt record data;
//    RecoveryStats reports what was salvaged.
//  * compact(min_hour) takes a point-in-time snapshot of the samples at or
//    after the retention horizon into one fresh segment flagged
//    kSegCompacted, which supersedes all lower-numbered segments; old files
//    are unlinked afterwards, so a crash at any point leaves either the old
//    or the new generation fully intact, never a mix.
//  * Drive ids are dense, assigned in registration order, and stable across
//    reopen and compaction.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/retry.h"
#include "smart/drive.h"

namespace hdd::obs {
class Counter;
class Registry;
}  // namespace hdd::obs

namespace hdd::store {

struct StoreOptions {
  // Rotation threshold: an append that would grow the current segment past
  // this opens a new one.
  std::uint64_t segment_bytes = 8ull << 20;
  // fsync after every append (otherwise durability is at flush()/OS pace).
  bool fsync_appends = false;
  // Registry for the hdd_store_* metrics (appends, bytes, fsyncs,
  // rotations, recovery-taxonomy outcomes); nullptr =
  // obs::Registry::global(). A non-global registry must outlive the store.
  obs::Registry* metrics = nullptr;
  // All filesystem access goes through this Env; nullptr = io::Env::posix().
  // A FaultEnv here puts the whole store under deterministic fault
  // injection. The env must outlive the store.
  io::Env* env = nullptr;
  // Backoff policy for transiently failing opens and fsyncs. Appends are
  // never blindly retried: a short write may have landed a prefix, and
  // re-sending the frame would duplicate it — the segment is sealed and the
  // next append rotates to a fresh one instead.
  io::RetryPolicy retry{};
};

struct RecoveryStats {
  std::size_t segments_scanned = 0;
  std::size_t segments_skipped = 0;    // unreadable header — excluded wholesale
  std::size_t records_recovered = 0;   // applied to the index
  std::size_t records_dropped = 0;     // CRC mismatch, bad reference, unknown type
  std::uint64_t torn_bytes_truncated = 0;
  bool tail_truncated = false;
};

struct DriveInfo {
  std::string serial;
  std::size_t n_samples = 0;
  std::int64_t first_hour = -1;
  std::int64_t last_hour = -1;
};

// The promoted model the log knows about: generation number + serialized
// model text (core/model_io format). Highest generation wins on recovery.
struct GenerationRecord {
  std::uint64_t generation = 0;
  std::string model_text;
};

// Concurrency contract: externally synchronized, single caller at a time —
// no internal locking, deliberately. Serve pins each store to one shard
// worker thread (ShardEngine), and the retrain loop reaches it only via
// Server::run_on_shard, so every access is already serialized; a mutex here
// would only hide violations of that design. The annotated-capability
// subsystems (common/mutex.h) cover the genuinely shared state around it.
class TelemetryStore {
 public:
  // Opens (creating the directory if needed) and recovers the log.
  // Throws DataError only for environment-level failures (unreadable
  // directory, I/O errors) — never for corrupt record data.
  explicit TelemetryStore(std::string dir, StoreOptions options = {});
  ~TelemetryStore();

  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;

  const std::string& directory() const { return dir_; }
  const StoreOptions& options() const { return options_; }
  // Stats from the most recent recovery scan (open or post-compaction).
  const RecoveryStats& recovery() const { return recovery_; }

  // --- Drive registry -------------------------------------------------------

  // Returns the existing id for a known serial, else appends a registration
  // record and returns the new dense id.
  std::uint32_t register_drive(const std::string& serial);
  std::optional<std::uint32_t> find_drive(const std::string& serial) const;
  std::size_t drive_count() const { return drives_.size(); }
  const DriveInfo& drive(std::uint32_t id) const;

  // --- Append path ----------------------------------------------------------

  // Appends one sample for a registered drive. Samples for one drive should
  // arrive in chronological order (replay preserves append order).
  void append(std::uint32_t drive, const smart::Sample& sample);

  // Appends a block of samples for one drive, encoding all frames into one
  // reused buffer per write syscall (the serve ingest hot path; see
  // BENCH_obs.json BM_StoreAppendBatch vs BM_StoreAppend). Semantics match
  // n append() calls: rotation still happens on frame boundaries, and an
  // I/O failure seals the segment with none of this batch's samples
  // indexed (recovery truncates whatever prefix tore).
  void append_batch(std::uint32_t drive, const smart::Sample* samples,
                    std::size_t n);

  // Journals a promoted model generation durably (frame + fsync): the
  // update pipeline writes this record *before* hot-swapping the scorer, so
  // a crash at any promotion step resumes to a well-defined generation.
  // Throws DataError when the serialized model exceeds kMaxPayloadBytes.
  void append_generation(std::uint64_t generation,
                         std::string_view model_text);

  // Highest-generation record recovered or appended; nullopt when the log
  // holds none.
  const std::optional<GenerationRecord>& latest_generation() const {
    return generation_;
  }

  // Durable flush: fsyncs buffered appends to stable storage.
  void flush();

  // Cheap flush: pushes buffered appends to the OS page cache without the
  // fsync, so readers (and recovery after a process crash) see them.
  // Power-loss durability still requires flush().
  void flush_to_os();

  std::size_t sample_count() const;
  std::size_t segment_count() const { return segments_.size(); }
  // Latest hour across all drives; -1 when the store holds no samples.
  std::int64_t last_hour() const;

  // --- Read path ------------------------------------------------------------

  using SampleFn =
      std::function<void(std::uint32_t drive, const smart::Sample&)>;

  // Streams every sample in append order (the replay order resume_from and
  // the update strategies consume).
  void scan(const SampleFn& fn) const;

  // One drive's samples with hour in [from_hour, to_hour], in append order.
  // Reads every segment holding the drive: for single-drive readers. A
  // whole-fleet window wants read_window, which reads each segment once.
  std::vector<smart::Sample> read_drive(
      std::uint32_t drive,
      std::int64_t from_hour = std::numeric_limits<std::int64_t>::min(),
      std::int64_t to_hour = std::numeric_limits<std::int64_t>::max()) const;

  // Every registered drive's samples with hour in [from_hour, to_hour], in
  // one pass over the log: element `id` is drive `id` (serial set, samples
  // in append order, possibly empty), equal to read_drive(id, from_hour,
  // to_hour). This is the retrain window read, O(journal samples).
  std::vector<smart::DriveRecord> read_window(std::int64_t from_hour,
                                              std::int64_t to_hour) const;

  // --- Retention ------------------------------------------------------------

  struct CompactionResult {
    std::size_t kept = 0;
    std::size_t dropped = 0;
  };

  // Drops every sample with hour < min_hour and rewrites the log as a
  // single compacted segment (see class comment for the crash protocol).
  CompactionResult compact(std::int64_t min_hour);

  // Point-in-time snapshot into another directory (which must not already
  // contain segments): a one-segment store holding the live records.
  CompactionResult snapshot_to(
      const std::string& dest_dir,
      std::int64_t min_hour = std::numeric_limits<std::int64_t>::min()) const;

 private:
  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t data_end = 0;  // bytes of validated data (scan stops here)
    bool clean = true;           // false after a CRC-stop: never append here
    std::size_t n_samples = 0;
  };

  void recover();
  // Closes the current writer, surfacing buffered-write/close failures as
  // DataError when `strict`; quiet (log-only) otherwise.
  void close_writer(bool strict);
  // Scans one segment file, applying records to the index. Returns false
  // when the header was unreadable.
  [[nodiscard]] bool scan_segment(Segment& seg);
  void apply_record(std::string_view payload, Segment& seg);
  void ensure_writer();
  void write_frame(std::string_view payload);
  std::string segment_path(std::uint64_t seq) const;
  CompactionResult write_compacted(const std::string& path_tmp,
                                   const std::string& path_final,
                                   std::uint64_t seq,
                                   std::int64_t min_hour) const;
  void scan_range(const Segment& seg,
                  const std::function<void(std::string_view)>& fn) const;
  // The frame walk behind read_drive and read_window: flushes buffered
  // appends, then streams each sample with hour in [from_hour, to_hour]
  // whose segment the index lists for its drive, in append order. `only`
  // restricts the walk to one drive and to the segments that hold it.
  void walk_window(std::optional<std::uint32_t> only, std::int64_t from_hour,
                   std::int64_t to_hour, const SampleFn& fn) const;

  std::string dir_;
  StoreOptions options_;
  io::Env* env_;  // resolved from options_.env (never null after construction)
  io::Retryer retryer_;
  // hdd_store_* instruments (resolved from options_.metrics before
  // recover(), so the open-time scan is counted; see DESIGN.md §7). The
  // hdd_store_recovery_outcomes_total counters carry an {outcome=...}
  // label per recovery-taxonomy branch.
  obs::Counter* m_appends_;
  obs::Counter* m_bytes_;
  obs::Counter* m_fsyncs_;
  obs::Counter* m_rotations_;
  obs::Counter* m_sealed_;
  obs::Counter* m_rec_torn_tail_;
  obs::Counter* m_rec_crc_drop_;
  obs::Counter* m_rec_record_dropped_;
  obs::Counter* m_rec_header_skip_;
  obs::Counter* m_rec_empty_deleted_;
  obs::Counter* m_rec_tmp_deleted_;
  RecoveryStats recovery_;
  std::vector<Segment> segments_;
  std::vector<DriveInfo> drives_;
  // Segment seqs holding at least one sample of each drive (ascending).
  std::vector<std::vector<std::uint64_t>> drive_segments_;
  std::unordered_map<std::string, std::uint32_t> by_serial_;
  std::optional<GenerationRecord> generation_;
  std::uint64_t next_seq_ = 1;
  mutable std::unique_ptr<io::File> out_;  // current segment writer (lazy)
  std::string batch_buf_;  // reused frame buffer for append_batch
};

}  // namespace hdd::store
