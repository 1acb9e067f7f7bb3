// Tests for src/store: on-disk format codec round trips, append/reopen,
// rotation, retention, and — the point of the subsystem — deterministic
// recovery from every corruption class: torn tail, flipped payload bit,
// empty segment, unreadable header, and crash-interrupted compaction — and
// the one-pass window read agreeing with the per-drive read throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "io/env.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::store {
namespace {

namespace fs = std::filesystem;

smart::Sample make_sample(std::int64_t hour, float base = 0.0f) {
  smart::Sample s;
  s.hour = hour;
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    s.attrs[a] = base + static_cast<float>(a) + 0.25f * static_cast<float>(hour);
  }
  return s;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("hdd_store_test_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().filename().string().rfind("seg-", 0) == 0) {
        out.push_back(e.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::string read_bytes(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  static void write_bytes(const fs::path& p, const std::string& bytes) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

// --- Format codec ----------------------------------------------------------

TEST(Format, SegmentHeaderRoundTrip) {
  const auto bytes = encode_segment_header(42, kSegCompacted);
  ASSERT_EQ(bytes.size(), kSegmentHeaderBytes);
  const auto h = decode_segment_header(bytes);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->sequence, 42u);
  EXPECT_EQ(h->flags, kSegCompacted);
}

TEST(Format, SegmentHeaderRejectsCorruption) {
  auto bytes = encode_segment_header(7, 0);
  EXPECT_FALSE(decode_segment_header(bytes.substr(0, 10)).has_value());
  bytes[3] ^= 0x01;  // damage the magic
  EXPECT_FALSE(decode_segment_header(bytes).has_value());
  bytes[3] ^= 0x01;
  bytes[12] ^= 0x40;  // damage the sequence -> checksum mismatch
  EXPECT_FALSE(decode_segment_header(bytes).has_value());
}

TEST(Format, DriveRecordRoundTrip) {
  const auto payload = encode_drive_record(3, "WD-XYZ-001");
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kDrive);
  EXPECT_EQ(rec->drive, 3u);
  EXPECT_EQ(rec->serial, "WD-XYZ-001");
}

TEST(Format, SampleRecordRoundTripsBitExact) {
  const auto s = make_sample(1234, 0.875f);
  const auto payload = encode_sample_record(9, s);
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kSample);
  EXPECT_EQ(rec->drive, 9u);
  EXPECT_EQ(rec->sample.hour, 1234);
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    EXPECT_EQ(rec->sample.attrs[a], s.attrs[a]);  // exact bits, not approx
  }
}

TEST(Format, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(decode_record("").has_value());
  EXPECT_FALSE(decode_record("\x07junk").has_value());  // unknown type
  const auto payload = encode_sample_record(1, make_sample(5));
  EXPECT_FALSE(decode_record(payload.substr(0, payload.size() - 3)));
}

TEST(Format, FrameCarriesPayloadCrc) {
  const auto payload = encode_drive_record(0, "S");
  const auto framed = frame_record(payload);
  ASSERT_EQ(framed.size(), kFrameHeaderBytes + payload.size());
  const auto crc = crc32(payload.data(), payload.size());
  std::uint32_t stored = 0;
  std::memcpy(&stored, framed.data() + 4, 4);
  EXPECT_EQ(stored, crc);
}

// --- Basic store behaviour -------------------------------------------------

TEST_F(StoreTest, AppendReopenRoundTrip) {
  {
    TelemetryStore store(dir());
    const auto a = store.register_drive("drive-A");
    const auto b = store.register_drive("drive-B");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(store.register_drive("drive-A"), a);  // idempotent
    for (std::int64_t h = 0; h < 48; h += 2) {
      store.append(a, make_sample(h, 1.0f));
      store.append(b, make_sample(h, 2.0f));
    }
    store.flush();
    EXPECT_EQ(store.sample_count(), 48u);
    EXPECT_EQ(store.last_hour(), 46);
  }
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive_count(), 2u);
  EXPECT_EQ(store.recovery().records_recovered, 50u);  // 2 reg + 48 samples
  EXPECT_EQ(store.recovery().records_dropped, 0u);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_EQ(store.find_drive("drive-B"), std::optional<std::uint32_t>(1u));
  EXPECT_FALSE(store.find_drive("drive-C").has_value());
  EXPECT_EQ(store.drive(0).serial, "drive-A");
  EXPECT_EQ(store.drive(0).n_samples, 24u);
  EXPECT_EQ(store.drive(0).first_hour, 0);
  EXPECT_EQ(store.drive(0).last_hour, 46);

  const auto window = store.read_drive(1, 10, 20);
  ASSERT_EQ(window.size(), 6u);  // hours 10..20 step 2
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].hour, 10 + 2 * static_cast<std::int64_t>(i));
    EXPECT_EQ(window[i].attrs[3], make_sample(window[i].hour, 2.0f).attrs[3]);
  }
}

TEST_F(StoreTest, RegisterDriveValidatesSerial) {
  TelemetryStore store(dir());
  EXPECT_THROW(store.register_drive(""), ConfigError);
  EXPECT_THROW(store.append(0, make_sample(0)), ConfigError);  // unknown id
}

TEST_F(StoreTest, RotationSpreadsSegmentsAndScanPreservesOrder) {
  StoreOptions opt;
  opt.segment_bytes = 512;  // force many rotations
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 100; ++h) store.append(id, make_sample(h));
    store.flush();
    EXPECT_GT(store.segment_count(), 3u);
  }
  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.sample_count(), 100u);
  std::vector<std::int64_t> hours;
  store.scan([&](std::uint32_t drive, const smart::Sample& s) {
    EXPECT_EQ(drive, 0u);
    hours.push_back(s.hour);
  });
  ASSERT_EQ(hours.size(), 100u);
  for (std::int64_t h = 0; h < 100; ++h) EXPECT_EQ(hours[h], h);
  // read_drive prunes by the per-drive segment index but returns the same.
  EXPECT_EQ(store.read_drive(0).size(), 100u);
  EXPECT_EQ(store.read_drive(0, 90).size(), 10u);
}

// --- Corruption recovery ---------------------------------------------------

TEST_F(StoreTest, TornTailIsTruncatedAndStoreStaysAppendable) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 10; ++h) store.append(id, make_sample(h));
    store.flush();
  }
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  const auto full = fs::file_size(segs[0]);
  // One sample frame is 8B header + 61B payload (type + drive + hour +
  // 12 attrs); cutting 7 bytes tears the final record mid-payload.
  const std::uintmax_t frame = kFrameHeaderBytes + 1 + 4 + 8 + 12 * 4;
  fs::resize_file(segs[0], full - 7);

  {
    TelemetryStore store(dir());
    EXPECT_TRUE(store.recovery().tail_truncated);
    EXPECT_EQ(store.recovery().torn_bytes_truncated, frame - 7);
    EXPECT_EQ(store.recovery().records_recovered, 10u);  // 1 reg + 9 samples
    EXPECT_EQ(store.recovery().records_dropped, 0u);
    EXPECT_EQ(store.drive(0).n_samples, 9u);
    EXPECT_EQ(store.drive(0).last_hour, 8);
    // The file shrank to the last complete record...
    EXPECT_EQ(fs::file_size(segment_files()[0]), full - frame);
    // ...and the store accepts the re-written sample plus new ones.
    store.append(0, make_sample(9));
    store.append(0, make_sample(10));
    store.flush();
  }
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive(0).n_samples, 11u);
  EXPECT_EQ(store.drive(0).last_hour, 10);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_EQ(store.segment_count(), 1u);  // appends went to the same segment
}

// An Env whose Nth File::append tears: a byte-count prefix reaches the
// real file, then a transient error is reported — the shape of a batched
// write dying partway with whole frames already on disk.
class TearingEnv final : public io::EnvWrapper {
 public:
  TearingEnv(io::Env& target, int fail_on_append, std::size_t landed_bytes)
      : EnvWrapper(target),
        fail_on_append_(fail_on_append),
        landed_bytes_(landed_bytes) {}

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    std::unique_ptr<io::File> real;
    if (auto s = EnvWrapper::new_append_file(path, truncate, real); !s.ok()) {
      return s;
    }
    out = std::make_unique<TearingFile>(std::move(real), this);
    return io::IoStatus::success();
  }

 private:
  class TearingFile final : public io::File {
   public:
    TearingFile(std::unique_ptr<io::File> real, TearingEnv* env)
        : real_(std::move(real)), env_(env) {}
    io::IoStatus append(std::string_view data) override {
      if (++env_->appends_ == env_->fail_on_append_) {
        const auto landed = std::min(env_->landed_bytes_, data.size());
        (void)real_->append(data.substr(0, landed));
        (void)real_->flush();
        return io::IoStatus::transient_error("injected torn append");
      }
      return real_->append(data);
    }
    io::IoStatus flush() override { return real_->flush(); }
    io::IoStatus sync() override { return real_->sync(); }
    io::IoStatus close() override { return real_->close(); }
    void abandon() override { real_->abandon(); }

   private:
    std::unique_ptr<io::File> real_;
    TearingEnv* env_;
  };

  int appends_ = 0;
  const int fail_on_append_;
  const std::size_t landed_bytes_;
};

TEST_F(StoreTest, TornBatchPrefixIsNotReplayedWhenTheBatchIsResent) {
  // Append #1 is the segment header; #2 is the registration; #3 is the
  // batch, torn after exactly two complete frames have landed.
  TearingEnv env(io::Env::posix(), /*fail_on_append=*/3,
                 /*landed_bytes=*/2 * kSampleFrameBytes);
  StoreOptions opt;
  opt.env = &env;
  std::vector<smart::Sample> batch;
  for (std::int64_t h = 0; h < 6; ++h) batch.push_back(make_sample(h));
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    EXPECT_THROW(store.append_batch(id, batch.data(), batch.size()),
                 DataError);
    EXPECT_EQ(store.drive(id).n_samples, 0u);  // none of the batch indexed
    // The producer's contract after a journal failure: re-send the whole
    // batch. The two frames that landed before the tear must not turn
    // into duplicates, in this store or any recovered one.
    store.append_batch(id, batch.data(), batch.size());
    EXPECT_EQ(store.drive(id).n_samples, 6u);
    store.flush();
  }
  TelemetryStore reopened(dir());
  EXPECT_EQ(reopened.drive(0).n_samples, 6u);
  const auto got = reopened.read_drive(0);
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hour, static_cast<std::int64_t>(i));
  }
}

TEST_F(StoreTest, FlippedPayloadBitSkipsRecordAndStopsTheSegment) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 10; ++h) store.append(id, make_sample(h));
    store.flush();
  }
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  auto bytes = read_bytes(segs[0]);
  // Flip one bit inside the payload of a mid-file record: CRC must catch it,
  // the record is dropped, and scanning of this segment stops there (we
  // cannot trust framing after a corrupt region).
  const std::size_t flip = bytes.size() / 2;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x10);
  write_bytes(segs[0], bytes);

  TelemetryStore store(dir());
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_GT(store.recovery().records_recovered, 0u);
  EXPECT_LT(store.drive(0).n_samples, 10u);  // prefix only
  // The file itself is preserved (only the tail-torn case truncates).
  EXPECT_EQ(read_bytes(segment_files()[0]).size(), bytes.size());
  // New appends go to a fresh segment, never after a corrupt region.
  store.append(0, make_sample(99));
  store.flush();
  EXPECT_EQ(store.segment_count(), 2u);
  // The salvage plus the new sample survive another reopen.
  const auto n_after = store.drive(0).n_samples;
  TelemetryStore reopened(dir());
  EXPECT_EQ(reopened.drive(0).n_samples, n_after);
  EXPECT_EQ(reopened.drive(0).last_hour, 99);
}

TEST_F(StoreTest, CorruptionInOneSegmentLeavesLaterSegmentsReadable) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 60; ++h) store.append(id, make_sample(h));
    store.flush();
    ASSERT_GT(store.segment_count(), 2u);
  }
  const auto segs = segment_files();
  // Corrupt a record in the middle of the SECOND segment.
  auto bytes = read_bytes(segs[1]);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_bytes(segs[1], bytes);

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  // Samples from segment 1, the prefix of segment 2, and ALL later segments
  // are present: the failure is contained to one segment's suffix.
  EXPECT_LT(store.drive(0).n_samples, 60u);
  EXPECT_EQ(store.drive(0).last_hour, 59);
  std::vector<std::int64_t> hours;
  store.scan([&](std::uint32_t, const smart::Sample& s) {
    hours.push_back(s.hour);
  });
  EXPECT_FALSE(hours.empty());
  EXPECT_TRUE(std::is_sorted(hours.begin(), hours.end()));
}

TEST_F(StoreTest, EmptySegmentFileIsDeletedOnOpen) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    store.append(id, make_sample(0));
    store.flush();
  }
  // A crash after fopen but before the header write leaves a 0-byte file.
  write_bytes(dir_ / "seg-00000099.log", "");
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive(0).n_samples, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000099.log"));
}

TEST_F(StoreTest, UnreadableHeaderSkipsSegmentButKeepsTheRest) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 60; ++h) store.append(id, make_sample(h));
    store.flush();
    ASSERT_GT(store.segment_count(), 2u);
  }
  const auto segs = segment_files();
  auto bytes = read_bytes(segs[1]);
  bytes[0] = 'X';  // destroy the magic
  write_bytes(segs[1], bytes);

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.recovery().segments_skipped, 1u);
  EXPECT_GT(store.recovery().records_recovered, 0u);
  EXPECT_EQ(store.drive(0).last_hour, 59);  // later segments still loaded
}

TEST_F(StoreTest, LeftoverTmpFilesAreRemoved) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    store.append(id, make_sample(0));
    store.flush();
  }
  write_bytes(dir_ / "seg-00000042.log.tmp", "half-written compaction");
  TelemetryStore store(dir());
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000042.log.tmp"));
  EXPECT_EQ(store.drive(0).n_samples, 1u);
}

// --- Retention -------------------------------------------------------------

TEST_F(StoreTest, CompactionDropsOldSamplesAndSurvivesReopen) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto a = store.register_drive("A");
    const auto b = store.register_drive("B");
    for (std::int64_t h = 0; h < 50; ++h) {
      store.append(a, make_sample(h, 1.0f));
      store.append(b, make_sample(h, 2.0f));
    }
    store.flush();
    const auto before_segments = store.segment_count();
    ASSERT_GT(before_segments, 2u);

    const auto r = store.compact(30);
    EXPECT_EQ(r.kept, 40u);     // hours 30..49 for both drives
    EXPECT_EQ(r.dropped, 60u);  // hours 0..29 for both drives
    EXPECT_EQ(store.segment_count(), 1u);
    EXPECT_EQ(store.sample_count(), 40u);
    EXPECT_EQ(store.drive(0).first_hour, 30);
    EXPECT_EQ(store.drive(1).serial, "B");  // ids stable across compaction

    // The store stays appendable after compaction.
    store.append(a, make_sample(50, 1.0f));
    store.flush();
  }
  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.drive_count(), 2u);
  EXPECT_EQ(store.sample_count(), 41u);
  EXPECT_EQ(store.drive(0).first_hour, 30);
  EXPECT_EQ(store.drive(0).last_hour, 50);
  const auto readback = store.read_drive(1);
  ASSERT_EQ(readback.size(), 20u);
  EXPECT_EQ(readback.front().hour, 30);
  EXPECT_EQ(readback.front().attrs[5], make_sample(30, 2.0f).attrs[5]);
}

TEST_F(StoreTest, CompactedSegmentSupersedesLeftoverOldSegments) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 50; ++h) store.append(id, make_sample(h));
    store.flush();
    store.compact(20);
  }
  // Simulate a crash between compaction-rename and old-segment unlink: put a
  // stale low-sequence segment back. Its sequence is below the compacted
  // segment's, so recovery must ignore and remove it.
  {
    TelemetryStore scratch(dir_.string() + "_stale");
    const auto id = scratch.register_drive("STALE");
    scratch.append(id, make_sample(999));
    scratch.flush();
  }
  fs::copy_file(fs::path(dir_.string() + "_stale") / "seg-00000001.log",
                dir_ / "seg-00000001.log");
  fs::remove_all(dir_.string() + "_stale");

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.drive_count(), 1u);
  EXPECT_EQ(store.drive(0).serial, "D");       // not STALE
  EXPECT_EQ(store.sample_count(), 30u);        // hours 20..49
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000001.log"));  // stale file removed
}

TEST_F(StoreTest, SnapshotToProducesIndependentStore) {
  const auto snap_dir = dir_.string() + "_snap";
  fs::remove_all(snap_dir);
  {
    TelemetryStore store(dir());
    const auto a = store.register_drive("A");
    for (std::int64_t h = 0; h < 20; ++h) store.append(a, make_sample(h));
    store.flush();
    const auto r = store.snapshot_to(snap_dir, 10);
    EXPECT_EQ(r.kept, 10u);
    EXPECT_EQ(r.dropped, 10u);
    EXPECT_EQ(store.sample_count(), 20u);  // source untouched
    EXPECT_THROW(store.snapshot_to(snap_dir), ConfigError);  // non-empty dest
  }
  TelemetryStore snap(snap_dir);
  EXPECT_EQ(snap.drive_count(), 1u);
  EXPECT_EQ(snap.sample_count(), 10u);
  EXPECT_EQ(snap.drive(0).first_hour, 10);
  fs::remove_all(snap_dir);
}

// --- One-pass window read ----------------------------------------------------

// read_window(from, to) must hold every registered drive, in id order, with
// exactly read_drive(id, from, to). read_window runs first, so any appends
// still buffered are its to flush.
void expect_window_matches_read_drive(const TelemetryStore& store,
                                      std::int64_t from, std::int64_t to) {
  const auto window = store.read_window(from, to);
  ASSERT_EQ(window.size(), store.drive_count());
  for (std::uint32_t id = 0; id < window.size(); ++id) {
    EXPECT_EQ(window[id].serial, store.drive(id).serial);
    const auto want = store.read_drive(id, from, to);
    const auto& got = window[id].samples;
    ASSERT_EQ(got.size(), want.size()) << "drive " << id << " [" << from
                                       << ", " << to << "]";
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].hour, want[k].hour);
      EXPECT_EQ(got[k].attrs, want[k].attrs);
    }
  }
}

// Windows covering the whole log, bounds landing exactly on sample hours,
// a single hour, a range past every sample and an inverted range.
void expect_windows_match_read_drive(const TelemetryStore& store) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (const auto& [from, to] : std::vector<std::pair<std::int64_t,
                                                      std::int64_t>>{
           {kMin, kMax}, {10, 20}, {25, 25}, {45, 130}, {1000, 2000},
           {20, 10}}) {
    expect_window_matches_read_drive(store, from, to);
  }
}

// A rotated fleet written both ways the serve paths write it: hour-major
// interleaved single appends (live ingest) for drives 0-3, then
// drive-major append_batch runs (backfill) for drives 4-6 over hours
// 100-139, and drive 7 registered with no samples at all.
void fill_mixed_fleet(TelemetryStore& store) {
  for (int d = 0; d < 8; ++d) store.register_drive("D" + std::to_string(d));
  for (std::int64_t h = 0; h < 50; ++h) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      store.append(d, make_sample(h, static_cast<float>(d)));
    }
  }
  for (std::uint32_t d = 4; d < 7; ++d) {
    std::vector<smart::Sample> run;
    for (std::int64_t h = 100; h < 140; ++h) {
      run.push_back(make_sample(h, static_cast<float>(d)));
    }
    store.append_batch(d, run.data(), run.size());
  }
  store.flush();
}

TEST_F(StoreTest, ReadWindowMatchesReadDriveOnARotatedMixedLog) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  TelemetryStore store(dir(), opt);
  fill_mixed_fleet(store);
  ASSERT_GT(store.segment_count(), 10u);
  expect_windows_match_read_drive(store);

  // Inclusive bounds on both ends; drives outside the window stay present.
  const auto w = store.read_window(10, 20);
  ASSERT_EQ(w.size(), 8u);
  ASSERT_EQ(w[2].samples.size(), 11u);
  EXPECT_EQ(w[2].samples.front().hour, 10);
  EXPECT_EQ(w[2].samples.back().hour, 20);
  EXPECT_EQ(w[2].samples[3].attrs, make_sample(13, 2.0f).attrs);
  for (std::uint32_t d = 4; d < 8; ++d) {
    EXPECT_TRUE(w[d].samples.empty()) << d;
    EXPECT_EQ(w[d].serial, "D" + std::to_string(d));
  }

  TelemetryStore reopened(dir(), opt);
  expect_windows_match_read_drive(reopened);
}

TEST_F(StoreTest, ReadWindowMatchesReadDriveAfterCompaction) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  TelemetryStore store(dir(), opt);
  fill_mixed_fleet(store);
  (void)store.compact(30);
  ASSERT_EQ(store.segment_count(), 1u);
  expect_windows_match_read_drive(store);
  EXPECT_TRUE(store.read_window(0, 29)[0].samples.empty());
  // Appends after compaction rotate past the compacted segment again.
  for (std::int64_t h = 50; h < 60; ++h) store.append(1, make_sample(h));
  expect_windows_match_read_drive(store);
}

TEST_F(StoreTest, ReadWindowMatchesReadDriveAfterTornTailRecovery) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    fill_mixed_fleet(store);
  }
  const auto segs = segment_files();
  fs::resize_file(segs.back(), fs::file_size(segs.back()) - 7);
  TelemetryStore store(dir(), opt);
  ASSERT_TRUE(store.recovery().tail_truncated);
  expect_windows_match_read_drive(store);
}

TEST_F(StoreTest, ReadWindowMatchesReadDriveAfterACrcStopSegment) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    fill_mixed_fleet(store);
  }
  // Flip a bit mid-way through an interleaved segment: its suffix is lost,
  // later segments still load.
  const auto segs = segment_files();
  ASSERT_GT(segs.size(), 4u);
  auto bytes = read_bytes(segs[3]);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_bytes(segs[3], bytes);
  TelemetryStore store(dir(), opt);
  ASSERT_EQ(store.recovery().records_dropped, 1u);
  expect_windows_match_read_drive(store);
  // The sealed segment takes no appends; the next ones land after it.
  for (std::int64_t h = 140; h < 150; ++h) store.append(5, make_sample(h));
  expect_windows_match_read_drive(store);
}

TEST_F(StoreTest, ReadWindowSkipsASampleRecoveryDropped) {
  // Segment 1 holds a sample for drive 1 ahead of drive 1's registration:
  // recovery drops it, so the index lists only segment 2 for drive 1 and
  // read_drive never sees the dropped record. The one-pass walk reads
  // segment 1 too and must drop it the same way.
  fs::create_directories(dir_);
  write_bytes(dir_ / "seg-00000001.log",
              encode_segment_header(1, 0) +
                  frame_record(encode_drive_record(0, "A")) +
                  frame_record(encode_sample_record(1, make_sample(5))) +
                  frame_record(encode_drive_record(1, "B")) +
                  frame_record(encode_sample_record(0, make_sample(5))));
  write_bytes(dir_ / "seg-00000002.log",
              encode_segment_header(2, 0) +
                  frame_record(encode_sample_record(1, make_sample(6))));
  TelemetryStore store(dir());
  ASSERT_EQ(store.recovery().records_dropped, 1u);
  ASSERT_EQ(store.read_drive(1).size(), 1u);
  expect_windows_match_read_drive(store);
  EXPECT_EQ(store.read_window(0, 10)[1].samples.size(), 1u);
}

TEST_F(StoreTest, ReadWindowSeesUnflushedAppends) {
  TelemetryStore store(dir());
  fill_mixed_fleet(store);
  for (std::int64_t h = 50; h < 55; ++h) store.append(0, make_sample(h));
  const auto w = store.read_window(50, 54);  // nothing flushed these yet
  ASSERT_EQ(w[0].samples.size(), 5u);
  EXPECT_EQ(w[0].samples.back().hour, 54);
  store.append(7, make_sample(60));
  expect_windows_match_read_drive(store);
  EXPECT_EQ(store.read_window(60, 60)[7].samples.size(), 1u);
}

}  // namespace
}  // namespace hdd::store
