// Crash-safe durability layer: CRC framing, journal write/scan under
// corruption, snapshot atomicity + format evolution, recovery replay,
// and the seeded crash-injection soak (every kill point must recover
// and the recovered event stream must converge with a golden run).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/chaos.hpp"
#include "core/journal.hpp"
#include "core/recovery.hpp"
#include "core/replay.hpp"
#include "core/snapshot.hpp"
#include "byte_mutation.hpp"
#include "soak_invariants.hpp"

namespace fs = std::filesystem;
using namespace tagbreathe;
using namespace tagbreathe::core;

namespace {

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path = fs::temp_directory_path() /
           ("tagbreathe_durability_" + std::to_string(::getpid()) + "_" + tag +
            "_" + std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TagRead make_read(double t, std::uint64_t user, std::uint32_t tag,
                  double phase) {
  TagRead r;
  r.time_s = t;
  r.epc = rfid::Epc96::from_user_tag(user, tag);
  r.antenna_id = 1;
  r.channel_index = 7;
  r.frequency_hz = 920.625e6;
  r.rssi_dbm = -52.5;
  r.phase_rad = phase;
  r.doppler_hz = 0.25;
  return r;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// The single journal/snapshot file in `dir` matching `ext`, by name
/// order. Index -1 = last.
std::vector<fs::path> files_with_ext(const fs::path& dir,
                                     const std::string& ext) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ext) out.push_back(entry.path());
  std::sort(out.begin(), out.end());
  return out;
}

JournalConfig journal_config(const TempDir& dir) {
  JournalConfig cfg;
  cfg.directory = dir.str();
  cfg.commit_batch = 4;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32, KnownVectorAndIncremental) {
  const char* check = "123456789";
  EXPECT_EQ(common::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(common::crc32("", 0), 0u);

  std::uint32_t state = common::crc32_init();
  state = common::crc32_update(state, check, 4);
  state = common::crc32_update(state, check + 4, 5);
  EXPECT_EQ(common::crc32_final(state), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint32_t clean = common::crc32(data.data(), data.size());
  data[17] ^= 0x04;
  EXPECT_NE(common::crc32(data.data(), data.size()), clean);
}

// ---------------------------------------------------------------------------
// Byte codec

// Widths, byte order and underrun are covered for both orders by
// ByteCodecContract in test_llrp_robustness.

TEST(ByteCodec, TagReadRoundTripIsExact) {
  const TagRead in = make_read(1234.5678, 42, 7, 2.718281828);
  ByteWriter w;
  encode_tag_read(w, in);
  ByteReader r(w.data());
  const TagRead out = decode_tag_read(r);
  EXPECT_EQ(out.time_s, in.time_s);
  EXPECT_EQ(out.epc, in.epc);
  EXPECT_EQ(out.antenna_id, in.antenna_id);
  EXPECT_EQ(out.channel_index, in.channel_index);
  EXPECT_EQ(out.frequency_hz, in.frequency_hz);
  EXPECT_EQ(out.rssi_dbm, in.rssi_dbm);
  EXPECT_EQ(out.phase_rad, in.phase_rad);
  EXPECT_EQ(out.doppler_hz, in.doppler_hz);
  EXPECT_EQ(r.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Journal

TEST(Journal, RoundTripInOrder) {
  TempDir dir("journal_roundtrip");
  {
    JournalWriter writer(journal_config(dir));
    for (int i = 0; i < 10; ++i)
      writer.append(make_read(0.1 * i, 1, 1, 0.01 * i));
    writer.commit();
    EXPECT_EQ(writer.last_committed_seq(), 10u);
    EXPECT_FALSE(writer.wedged());
  }
  std::vector<JournalRecord> records;
  const JournalScanResult scan = scan_journal(
      dir.str(), 0, [&](const JournalRecord& r) { records.push_back(r); });
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(scan.delivered, 10u);
  EXPECT_EQ(scan.max_seq, 10u);
  EXPECT_EQ(scan.counters.journal_records_corrupt, 0u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].read.time_s, 0.1 * static_cast<double>(i));
    EXPECT_EQ(records[i].read.phase_rad, 0.01 * static_cast<double>(i));
  }
}

TEST(Journal, AfterSeqFiltersReplay) {
  TempDir dir("journal_afterseq");
  {
    JournalWriter writer(journal_config(dir));
    for (int i = 0; i < 8; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  }  // destructor commits the tail
  std::vector<std::uint64_t> seqs;
  const JournalScanResult scan = scan_journal(
      dir.str(), 5, [&](const JournalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(scan.delivered, 3u);
  EXPECT_EQ(scan.max_seq, 8u);
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs.front(), 6u);
  EXPECT_EQ(seqs.back(), 8u);
}

TEST(Journal, RotationAndPruneBySnapshotProgress) {
  TempDir dir("journal_rotate");
  JournalConfig cfg = journal_config(dir);
  cfg.commit_batch = 1;          // commit (and maybe rotate) per record
  cfg.segment_max_bytes = 260;   // header + ~3 frames
  JournalWriter writer(cfg);
  for (int i = 0; i < 12; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  writer.commit();
  const std::size_t before = files_with_ext(dir.path, ".tbj").size();
  EXPECT_GE(before, 3u);

  // A snapshot covering seq <= 6 makes the early segments redundant.
  writer.prune(6);
  const std::size_t after = files_with_ext(dir.path, ".tbj").size();
  EXPECT_LT(after, before);

  // Everything past the prune frontier must still replay.
  std::vector<std::uint64_t> seqs;
  scan_journal(dir.str(), 6,
               [&](const JournalRecord& r) { seqs.push_back(r.seq); });
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), 12u);
  for (std::size_t i = 1; i < seqs.size(); ++i)
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
}

TEST(Journal, HardSegmentCapBoundsDisk) {
  TempDir dir("journal_cap");
  JournalConfig cfg = journal_config(dir);
  cfg.commit_batch = 1;
  cfg.segment_max_bytes = 260;
  cfg.max_segments = 2;
  JournalWriter writer(cfg);
  for (int i = 0; i < 30; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  writer.commit();
  writer.prune(0);  // nothing snapshotted — only the hard cap applies
  EXPECT_LE(files_with_ext(dir.path, ".tbj").size(), 2u);
  EXPECT_GT(writer.counters().journal_segments_pruned, 0u);
}

TEST(Journal, BitFlippedRecordIsSkippedAndCounted) {
  TempDir dir("journal_bitflip");
  {
    JournalWriter writer(journal_config(dir));
    for (int i = 0; i < 6; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  }
  const auto segments = files_with_ext(dir.path, ".tbj");
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  // Flip one bit inside the first record's payload (24 B segment
  // header + 12 B frame header + a few bytes in).
  bytes[24 + 12 + 5] ^= 0x10;
  write_file(segments[0], bytes);

  std::vector<std::uint64_t> seqs;
  const JournalScanResult scan = scan_journal(
      dir.str(), 0, [&](const JournalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(scan.counters.journal_records_corrupt, 1u);
  EXPECT_EQ(scan.delivered, 5u);
  ASSERT_EQ(seqs.size(), 5u);
  EXPECT_EQ(seqs.front(), 2u);  // record 1 skipped, scanner resynced
  EXPECT_EQ(seqs.back(), 6u);
}

TEST(Journal, DamagedFrameMagicIsSkippedAndCounted) {
  TempDir dir("journal_magic");
  {
    JournalWriter writer(journal_config(dir));
    for (int i = 0; i < 3; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  }
  const auto segments = files_with_ext(dir.path, ".tbj");
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  constexpr std::size_t kHeader = 24;  // segment header
  ASSERT_EQ((bytes.size() - kHeader) % 3, 0u);
  const std::size_t frame_bytes = (bytes.size() - kHeader) / 3;
  // One byte of frame 2's magic: the scan loses sync there and finds it
  // again at frame 3, one whole frame later.
  bytes[kHeader + frame_bytes + 1] ^= 0x20;
  write_file(segments[0], bytes);

  std::vector<std::uint64_t> seqs;
  const JournalScanResult scan = scan_journal(
      dir.str(), 0, [&](const JournalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(scan.counters.journal_records_corrupt, 1u);
  EXPECT_EQ(scan.counters.journal_truncated_tails, 0u);
}

TEST(Journal, TornTailIsSkippedAndCounted) {
  TempDir dir("journal_torn");
  {
    JournalWriter writer(journal_config(dir));
    for (int i = 0; i < 6; ++i) writer.append(make_read(0.1 * i, 1, 1, 0.0));
  }
  const auto segments = files_with_ext(dir.path, ".tbj");
  ASSERT_EQ(segments.size(), 1u);
  const auto size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 10);  // cut into the last frame

  const JournalScanResult scan =
      scan_journal(dir.str(), 0, [](const JournalRecord&) {});
  EXPECT_EQ(scan.delivered, 5u);
  EXPECT_EQ(scan.counters.journal_truncated_tails, 1u);
  EXPECT_EQ(scan.max_seq, 5u);
}

TEST(Journal, GarbageSegmentRejectedNotFatal) {
  TempDir dir("journal_garbage");
  {
    JournalWriter writer(journal_config(dir));
    writer.append(make_read(0.5, 1, 1, 0.0));
  }
  // A second "segment" of pure garbage with a valid-looking name.
  write_file(dir.path / "journal-00000000000000ff.tbj",
             std::vector<std::uint8_t>(64, 0x5A));

  const JournalScanResult scan =
      scan_journal(dir.str(), 0, [](const JournalRecord&) {});
  EXPECT_EQ(scan.delivered, 1u);
  EXPECT_EQ(scan.counters.journal_segments_rejected, 1u);
}

TEST(Journal, MissingDirectoryScansEmpty) {
  const JournalScanResult scan = scan_journal(
      "/nonexistent/tagbreathe-journal", 0, [](const JournalRecord&) {});
  EXPECT_EQ(scan.delivered, 0u);
  EXPECT_EQ(scan.max_seq, 0u);
}

TEST(Journal, ConfigValidation) {
  EXPECT_THROW(JournalConfig{}.validate(), std::invalid_argument);
  JournalConfig cfg;
  cfg.directory = "/tmp/x";
  cfg.commit_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.commit_batch = 1;
  cfg.segment_max_bytes = 10;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Journal, InjectedCrashMidAppendWedgesWriter) {
  TempDir dir("journal_wedge");
  DurabilityHooks hooks;
  hooks.at_point = [](CrashPoint point) {
    if (point == CrashPoint::MidJournalAppend)
      throw SimulatedCrash("injected");
  };
  JournalConfig cfg = journal_config(dir);
  cfg.commit_batch = 2;
  JournalWriter writer(cfg, 1, &hooks);
  writer.append(make_read(0.1, 1, 1, 0.0));
  EXPECT_THROW(writer.append(make_read(0.2, 1, 1, 0.0)), SimulatedCrash);
  EXPECT_TRUE(writer.wedged());
  EXPECT_EQ(writer.last_committed_seq(), 0u);
  // Wedged writer refuses further work instead of repairing the tear.
  EXPECT_EQ(writer.append(make_read(0.3, 1, 1, 0.0)), 0u);

  // The interrupted batch leaves at most a prefix of intact frames on
  // disk; those may replay (at-least-once semantics) but the frame the
  // crash tore — and anything after it — must not.
  const JournalScanResult scan =
      scan_journal(dir.str(), 0, [](const JournalRecord&) {});
  EXPECT_LE(scan.delivered, 1u);
  EXPECT_LE(scan.max_seq, 1u);
}

// Seeded mutation, modelled on LoadReadsCsvFuzz below: one segment of 12
// records takes one byte_mutation.hpp mutation per case.
// The scan never throws, delivers only records that match what was
// written, still delivers every record that ends before the damage, and
// counts a damaged frame body or a cut frame.
TEST(JournalFuzz, SeededRandomMutationsNeverThrow) {
  TempDir dir("journal_fuzz");
  constexpr std::size_t kRecords = 12;
  constexpr std::size_t kHeader = 24;  // segment header
  std::vector<TagRead> written;
  {
    JournalWriter writer(journal_config(dir));
    for (std::size_t i = 0; i < kRecords; ++i) {
      written.push_back(make_read(0.1 * static_cast<double>(i), 1, 1,
                                  0.01 * static_cast<double>(i)));
      writer.append(written.back());
    }
  }
  const auto segments = files_with_ext(dir.path, ".tbj");
  ASSERT_EQ(segments.size(), 1u);
  const std::vector<std::uint8_t> base = read_file(segments[0]);
  ASSERT_EQ((base.size() - kHeader) % kRecords, 0u);
  const std::size_t frame_bytes = (base.size() - kHeader) / kRecords;

  common::Rng rng(0x7B1A5EEDull);
  constexpr int kCases = 400;
  for (int iter = 0; iter < kCases; ++iter) {
    std::vector<std::uint8_t> bytes = base;
    const auto [kind, pos] = testutil::mutate_once(rng, bytes);
    write_file(segments[0], bytes);

    std::vector<std::uint64_t> seqs;
    JournalScanResult scan;
    try {
      scan = scan_journal(dir.str(), 0, [&](const JournalRecord& r) {
        ASSERT_GE(r.seq, 1u);
        ASSERT_LE(r.seq, kRecords);
        const TagRead& w = written[r.seq - 1];
        EXPECT_EQ(r.read.time_s, w.time_s) << "case " << iter;
        EXPECT_EQ(r.read.phase_rad, w.phase_rad) << "case " << iter;
        seqs.push_back(r.seq);
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << iter << " threw: " << e.what();
      continue;
    }
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end())) << "case " << iter;

    // Records that end at or before the first damaged byte are intact.
    const std::size_t intact =
        pos < kHeader ? 0 : std::min(kRecords, (pos - kHeader) / frame_bytes);
    ASSERT_GE(seqs.size(), intact) << "case " << iter;
    for (std::size_t i = 0; i < intact; ++i)
      EXPECT_EQ(seqs[i], i + 1) << "case " << iter;

    if (pos < kHeader) continue;
    const std::size_t in_frame = (pos - kHeader) % frame_bytes;
    if (kind == testutil::MutationKind::Truncate && in_frame != 0) {
      EXPECT_EQ(scan.counters.journal_truncated_tails, 1u) << "case " << iter;
    }
    // A flipped bit anywhere in a frame (magic, length, CRC or payload)
    // is always a counted corrupt record or a torn tail.
    if (kind == testutil::MutationKind::Flip) {
      EXPECT_GE(scan.counters.journal_records_corrupt +
                    scan.counters.journal_truncated_tails,
                1u)
          << "case " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshots

namespace {

/// A non-trivial SnapshotData: real pipeline + validator state built
/// from a short synthetic run.
SnapshotData make_snapshot_fixture(std::uint64_t last_seq) {
  SoakConfig soak;
  soak.n_users = 2;
  soak.tags_per_user = 2;
  soak.duration_s = 20.0;
  soak.pipeline.window_s = 10.0;
  soak.pipeline.warmup_s = 2.0;

  RealtimePipeline pipeline(soak.pipeline);
  IngestConfig ingest;
  ingest.monitored_users = {1, 2};
  ReadValidator validator(ingest);
  for (TagRead read : make_soak_population(soak)) {
    if (validator.admit(read).admitted) pipeline.push(read);
  }
  SnapshotData data;
  data.last_journal_seq = last_seq;
  data.now_s = pipeline.now_s();
  data.pipeline = pipeline.export_state();
  data.validator = validator.export_state();
  return data;
}

void expect_snapshot_equal(const SnapshotData& a, const SnapshotData& b) {
  EXPECT_EQ(a.last_journal_seq, b.last_journal_seq);
  EXPECT_EQ(a.now_s, b.now_s);
  EXPECT_EQ(a.pipeline.now_s, b.pipeline.now_s);
  EXPECT_EQ(a.pipeline.start_s, b.pipeline.start_s);
  EXPECT_EQ(a.pipeline.next_update_s, b.pipeline.next_update_s);
  EXPECT_EQ(a.pipeline.started, b.pipeline.started);
  ASSERT_EQ(a.pipeline.users.size(), b.pipeline.users.size());
  for (std::size_t i = 0; i < a.pipeline.users.size(); ++i) {
    EXPECT_EQ(a.pipeline.users[i].user_id, b.pipeline.users[i].user_id);
    EXPECT_EQ(a.pipeline.users[i].last_read_s, b.pipeline.users[i].last_read_s);
    EXPECT_EQ(a.pipeline.users[i].health, b.pipeline.users[i].health);
  }
  ASSERT_EQ(a.pipeline.demux.streams.size(), b.pipeline.demux.streams.size());
  for (std::size_t i = 0; i < a.pipeline.demux.streams.size(); ++i) {
    EXPECT_EQ(a.pipeline.demux.streams[i].reads.size(),
              b.pipeline.demux.streams[i].reads.size());
  }
  EXPECT_EQ(a.validator.any_admitted, b.validator.any_admitted);
  EXPECT_EQ(a.validator.last_admitted_s, b.validator.last_admitted_s);
  EXPECT_EQ(a.validator.streams.size(), b.validator.streams.size());
  EXPECT_EQ(a.validator.lru_order, b.validator.lru_order);
}

}  // namespace

TEST(Snapshot, CodecRoundTrip) {
  const SnapshotData data = make_snapshot_fixture(17);
  const std::vector<std::uint8_t> bytes = encode_snapshot(data);
  const SnapshotData back = decode_snapshot(bytes.data(), bytes.size());
  expect_snapshot_equal(data, back);
}

TEST(Snapshot, WriteLoadRoundTripAndRetention) {
  TempDir dir("snapshot_rt");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.keep = 2;
  cfg.fsync = false;
  SnapshotWriter writer(cfg);
  for (std::uint64_t seq = 1; seq <= 4; ++seq)
    writer.write(make_snapshot_fixture(seq * 10));
  EXPECT_EQ(writer.counters().snapshots_written, 4u);
  EXPECT_EQ(writer.counters().snapshots_pruned, 2u);
  EXPECT_EQ(files_with_ext(dir.path, ".tbs").size(), 2u);

  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 40u);
  EXPECT_TRUE(report.rejected.empty());
}

TEST(Snapshot, VersionMismatchRejectedWithFallback) {
  TempDir dir("snapshot_version");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = false;
  SnapshotWriter writer(cfg);
  writer.write(make_snapshot_fixture(11));
  writer.write(make_snapshot_fixture(22));

  // Patch the newest file to a future format version, fixing the header
  // CRC so *only* the version check can reject it.
  const auto files = files_with_ext(dir.path, ".tbs");
  ASSERT_EQ(files.size(), 2u);
  std::vector<std::uint8_t> bytes = read_file(files[1]);
  bytes[8] = 0x63;  // version = 99
  const std::uint32_t crc = common::crc32(bytes.data() + 8, 24);
  for (int i = 0; i < 4; ++i)
    bytes[32 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  write_file(files[1], bytes);

  EXPECT_THROW(
      {
        try {
          decode_snapshot(bytes.data(), bytes.size());
        } catch (const DurabilityError& e) {
          EXPECT_NE(std::string(e.what()).find("unsupported format version 99"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      DurabilityError);

  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 11u);  // fell back to the older
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_NE(report.rejected[0].find("unsupported format version"),
            std::string::npos)
      << report.rejected[0];
  EXPECT_EQ(report.counters.snapshots_rejected, 1u);
}

TEST(Snapshot, SectionCrcMismatchRejectedWithFallback) {
  TempDir dir("snapshot_crc");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = false;
  SnapshotWriter writer(cfg);
  writer.write(make_snapshot_fixture(11));
  writer.write(make_snapshot_fixture(22));

  const auto files = files_with_ext(dir.path, ".tbs");
  ASSERT_EQ(files.size(), 2u);
  std::vector<std::uint8_t> bytes = read_file(files[1]);
  bytes[36 + 12 + 3] ^= 0x01;  // one bit inside the first section payload
  write_file(files[1], bytes);

  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 11u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_NE(report.rejected[0].find("CRC mismatch"), std::string::npos)
      << report.rejected[0];
}

TEST(Snapshot, TruncatedFileRejectedWithFallback) {
  TempDir dir("snapshot_trunc");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = false;
  SnapshotWriter writer(cfg);
  writer.write(make_snapshot_fixture(11));
  const std::string newest = writer.write(make_snapshot_fixture(22));
  fs::resize_file(newest, fs::file_size(newest) / 2);

  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 11u);
  EXPECT_EQ(report.rejected.size(), 1u);
}

TEST(Snapshot, CrashBeforeRenameLeavesPreviousIntact) {
  TempDir dir("snapshot_rename");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = false;

  {
    SnapshotWriter good(cfg);
    good.write(make_snapshot_fixture(11));
  }

  DurabilityHooks hooks;
  hooks.at_point = [](CrashPoint point) {
    if (point == CrashPoint::MidSnapshotRename)
      throw SimulatedCrash("injected");
  };
  SnapshotWriter writer(cfg, &hooks);
  EXPECT_THROW(writer.write(make_snapshot_fixture(22)), SimulatedCrash);
  EXPECT_TRUE(writer.wedged());
  EXPECT_THROW(writer.write(make_snapshot_fixture(33)), DurabilityError);

  // The orphaned temp file is ignored; the previous snapshot loads.
  EXPECT_EQ(files_with_ext(dir.path, ".tmp").size(), 1u);
  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 11u);
  EXPECT_TRUE(report.rejected.empty());
}

TEST(Snapshot, ConfigValidation) {
  EXPECT_THROW(SnapshotConfig{}.validate(), std::invalid_argument);
  SnapshotConfig cfg;
  cfg.directory = "/tmp/x";
  cfg.keep = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- oversized element counts ------------------------------------------------

namespace {

/// A small hand-built SnapshotData touching every counted list, so an
/// exhaustive per-offset sweep stays cheap.
SnapshotData make_small_snapshot() {
  SnapshotData data;
  data.last_journal_seq = 5;
  data.now_s = 12.0;
  data.pipeline.now_s = 12.0;
  data.pipeline.started = true;
  for (std::uint64_t user = 1; user <= 2; ++user) {
    PipelineState::User u;
    u.user_id = user;
    u.last_read_s = 11.5;
    data.pipeline.users.push_back(u);
    data.pipeline.last_seen_reads.emplace_back(user, 3);
    DemuxState::Stream stream;
    stream.key.user_id = user;
    stream.key.tag_id = 1;
    stream.key.antenna_id = 1;
    stream.reads = {make_read(11.0, user, 1, 0.1),
                    make_read(11.5, user, 1, 0.2)};
    data.pipeline.demux.streams.push_back(stream);
    data.pipeline.demux.reads_seen.emplace_back(user, 2);
    ValidatorState::Stream vs;
    vs.user_id = user;
    vs.tag_id = 1;
    vs.antenna_id = 1;
    vs.last_time_s = 11.5;
    data.validator.streams.push_back(vs);
    data.validator.lru_order.push_back(user);
  }
  data.validator.any_admitted = true;
  return data;
}

/// Writes the low `width` bytes of `v` little-endian at `at`.
void put_le(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Recomputes the header CRC and every section CRC that still fits in
/// the file, so a mutation is judged by the decoder, not by a checksum.
void refresh_snapshot_crcs(std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kHeader = 36;
  if (bytes.size() < kHeader) return;
  put_le(bytes, 32, common::crc32(bytes.data() + 8, 24), 4);
  std::size_t pos = kHeader;
  while (bytes.size() - pos >= 12) {
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(bytes[pos + 4 + i]) << (8 * i);
    if (bytes.size() - pos - 12 < len) break;
    put_le(bytes, pos + 8, common::crc32(bytes.data() + pos + 12, len), 4);
    pos += 12 + len;
  }
}

/// True when `bytes` decode; false on a DurabilityError. Any other
/// exception is a test failure.
bool decodes(const std::vector<std::uint8_t>& bytes, const std::string& what) {
  try {
    decode_snapshot(bytes.data(), bytes.size());
    return true;
  } catch (const DurabilityError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " escaped as a non-DurabilityError: " << e.what();
    return false;
  }
}

}  // namespace

// A CRC-valid snapshot with a huge count at any 8-byte offset must be
// refused as a DurabilityError, never reach a reserve() that throws
// bad_alloc/length_error past load_newest_snapshot's fallback.
TEST(SnapshotFuzz, HugeCountAtEveryOffsetIsRefusedTyped) {
  const std::vector<std::uint8_t> base = encode_snapshot(make_small_snapshot());
  std::size_t refused = 0;
  for (std::size_t at = 36; at + 8 <= base.size(); ++at) {
    std::vector<std::uint8_t> bytes = base;
    put_le(bytes, at, std::uint64_t{1} << 60, 8);
    refresh_snapshot_crcs(bytes);
    if (!decodes(bytes, "offset " + std::to_string(at))) ++refused;
  }
  EXPECT_GT(refused, 0u);
}

// Seeded mutation with CRC fix-up, modelled on LoadReadsCsvFuzz: each
// input decodes or throws DurabilityError, nothing else.
TEST(SnapshotFuzz, SeededRandomMutationsDecodeOrRefuse) {
  const std::vector<std::uint8_t> base = encode_snapshot(make_small_snapshot());
  common::Rng rng(0x5A5A0FF5ull);
  constexpr int kCases = 2000;
  std::size_t decoded = 0, refused = 0;
  for (int iter = 0; iter < kCases; ++iter) {
    std::vector<std::uint8_t> bytes = base;
    const int edits = rng.uniform_int(1, 3);
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(8, static_cast<int>(bytes.size()) - 8));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
          break;
        case 1:
          bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        default:  // a large count-shaped word
          put_le(bytes, pos, std::uint64_t{1} << rng.uniform_int(16, 63), 8);
      }
    }
    refresh_snapshot_crcs(bytes);
    if (decodes(bytes, "case " + std::to_string(iter))) ++decoded;
    else ++refused;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

// --- byte pins ---------------------------------------------------------------

// FNV-1a of fixed on-disk bytes, captured before the journal codec was
// merged with the LLRP one. A round trip cannot see a byte-order slip
// that writer and reader make together; these hashes can.
TEST(BytePins, JournalSegmentFileBytes) {
  TempDir dir("journal_pin");
  {
    JournalWriter writer(journal_config(dir), 0x0102030405ull);
    for (int i = 0; i < 6; ++i)
      writer.append(make_read(1000.125 + 0.25 * i, 0x0A0B0C + i, 3, -2.5 + i));
  }
  const auto segments = files_with_ext(dir.path, ".tbj");
  ASSERT_EQ(segments.size(), 1u);
  const auto bytes = read_file(segments[0]);
  EXPECT_EQ(bytes.size(), 474u);
  EXPECT_EQ(testutil::byte_hash(bytes), 0x2643CDD581E8BA17ull);
}

TEST(BytePins, SnapshotBytes) {
  SnapshotData data = make_small_snapshot();
  data.pipeline.users[0].health = SignalHealth::Stale;
  data.pipeline.users_evicted = 0x0102030405ull;
  data.pipeline.demux.accepted = 77;
  data.validator.streams[1].last_phase_rad = -1.75;
  data.validator.last_admitted_s = 11.5;
  const auto bytes = encode_snapshot(data);
  EXPECT_EQ(bytes.size(), 642u);
  EXPECT_EQ(testutil::byte_hash(bytes), 0x7EE6822BEEB84085ull);
}

TEST(Snapshot, HugeCountRejectedWithFallback) {
  TempDir dir("snapshot_count");
  SnapshotConfig cfg;
  cfg.directory = dir.str();
  cfg.fsync = false;
  SnapshotWriter writer(cfg);
  writer.write(make_snapshot_fixture(11));
  writer.write(make_snapshot_fixture(22));

  // The pipeline section's user count sits after its three f64 clocks,
  // the started flag and the eviction counter.
  const auto files = files_with_ext(dir.path, ".tbs");
  ASSERT_EQ(files.size(), 2u);
  std::vector<std::uint8_t> bytes = read_file(files[1]);
  put_le(bytes, 36 + 12 + 8 + 8 + 8 + 1 + 8, std::uint64_t{1} << 60, 8);
  refresh_snapshot_crcs(bytes);
  write_file(files[1], bytes);

  const SnapshotLoadReport report = load_newest_snapshot(dir.str());
  ASSERT_TRUE(report.data.has_value());
  EXPECT_EQ(report.data->last_journal_seq, 11u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_NE(report.rejected[0].find("exceeds the section size"),
            std::string::npos)
      << report.rejected[0];
}

// ---------------------------------------------------------------------------
// State export/import semantics

TEST(StateRoundTrip, PipelineResumesIdenticalEventStream) {
  SoakConfig soak;
  soak.n_users = 2;
  soak.tags_per_user = 2;
  soak.duration_s = 60.0;
  soak.pipeline.window_s = 15.0;
  soak.pipeline.warmup_s = 5.0;
  const ReadStream reads = make_soak_population(soak);
  const double split_s = 30.0;

  std::vector<std::string> full_log;
  RealtimePipeline full(soak.pipeline, [&](const PipelineEvent& e) {
    full_log.push_back(format_soak_event(e));
  });
  PipelineState mid_state;
  std::size_t mark = 0;
  for (const TagRead& read : reads) {
    if (read.time_s >= split_s && mark == 0) {
      mid_state = full.export_state();
      mark = full_log.size();
    }
    full.push(read);
  }
  full.advance_to(soak.duration_s);
  ASSERT_GT(mark, 0u);

  std::vector<std::string> resumed_log;
  RealtimePipeline resumed(soak.pipeline, [&](const PipelineEvent& e) {
    resumed_log.push_back(format_soak_event(e));
  });
  resumed.import_state(std::move(mid_state));
  for (const TagRead& read : reads)
    if (read.time_s >= split_s) resumed.push(read);
  resumed.advance_to(soak.duration_s);

  const std::vector<std::string> expected(full_log.begin() +
                                              static_cast<std::ptrdiff_t>(mark),
                                          full_log.end());
  EXPECT_EQ(resumed_log, expected);
}

TEST(StateRoundTrip, ValidatorJudgesIdenticallyAfterRestore) {
  IngestConfig cfg;
  cfg.monitored_users = {1, 2};
  ReadValidator original(cfg);
  TagRead r1 = make_read(1.0, 1, 1, 0.5);
  ASSERT_TRUE(original.admit(r1).admitted);
  TagRead r2 = make_read(2.0, 2, 1, 0.7);
  ASSERT_TRUE(original.admit(r2).admitted);

  ReadValidator restored(cfg);
  restored.import_state(original.export_state());
  EXPECT_EQ(restored.tracked_users(), original.tracked_users());
  EXPECT_EQ(restored.last_admitted_s(), original.last_admitted_s());

  // Probe reads must get byte-identical verdicts from both.
  const TagRead probes[] = {
      make_read(2.0, 2, 1, 0.7),   // duplicate delivery
      make_read(1.9, 1, 1, 0.9),   // small regression: repaired
      make_read(1.0, 1, 1, 0.9),   // large regression: quarantined
      make_read(2.5, 3, 1, 0.1),   // unknown user
      make_read(3.0, 1, 1, 0.11),  // clean
  };
  for (const TagRead& probe : probes) {
    TagRead a = probe, b = probe;
    const auto va = original.admit(a);
    const auto vb = restored.admit(b);
    EXPECT_EQ(va.admitted, vb.admitted);
    EXPECT_EQ(va.repaired, vb.repaired);
    EXPECT_EQ(a.time_s, b.time_s);  // identical repair outcome
  }
}

TEST(StateRoundTrip, FreshValidatorStateHasOpenFrontier) {
  IngestConfig cfg;
  ReadValidator validator(cfg);
  // Export before any admission, import, and confirm the frontier is
  // still open (a read at t=0 must not be treated as a regression).
  ReadValidator restored(cfg);
  restored.import_state(validator.export_state());
  TagRead r = make_read(0.0, 1, 1, 0.5);
  EXPECT_TRUE(restored.admit(r).admitted);
}

// ---------------------------------------------------------------------------
// DurableMonitor recovery

namespace {

struct MonitorRunConfig {
  SoakConfig soak;
  DurabilityConfig durability;
  IngestConfig ingest;
};

MonitorRunConfig monitor_run_config(const TempDir& dir) {
  MonitorRunConfig cfg;
  cfg.soak.n_users = 2;
  cfg.soak.tags_per_user = 1;
  cfg.soak.duration_s = 60.0;
  cfg.soak.pipeline.window_s = 15.0;
  cfg.soak.pipeline.warmup_s = 5.0;
  cfg.durability.directory = dir.str();
  cfg.durability.snapshot_period_s = 10.0;
  cfg.durability.journal.commit_batch = 8;
  cfg.durability.snapshot.fsync = false;
  cfg.ingest.monitored_users = {1, 2};
  return cfg;
}

/// Drives `reads` with offer_s in [from_s, to_s) through the monitor on
/// the soak pump grid.
void drive_monitor(DurableMonitor& monitor, const ReadStream& reads,
                   double pump_period_s, double from_s, double to_s) {
  double next_pump = pump_period_s;
  while (next_pump <= from_s) next_pump += pump_period_s;
  for (const TagRead& read : reads) {
    if (read.time_s < from_s || read.time_s >= to_s) continue;
    while (read.time_s >= next_pump) {
      monitor.pump(next_pump);
      next_pump += pump_period_s;
    }
    monitor.offer(read, read.time_s);
  }
  monitor.pump(to_s);
}

}  // namespace

TEST(DurableMonitor, ColdStartThenRecoveryResumes) {
  TempDir dir("monitor_recover");
  const MonitorRunConfig cfg = monitor_run_config(dir);
  const ReadStream reads = make_soak_population(cfg.soak);

  std::size_t first_life_events = 0;
  {
    DurableMonitor monitor(cfg.durability, cfg.ingest, cfg.soak.pipeline,
                           [&](const PipelineEvent&) { ++first_life_events; });
    EXPECT_FALSE(monitor.recovery().snapshot_loaded);
    EXPECT_EQ(monitor.recovery().replayed_reads, 0u);
    // Stop between checkpoints (period 10 s): the final snapshot lands
    // at the t=40 pump, so the reads in (40, 44] exist only as a
    // committed journal tail and must come back via replay.
    drive_monitor(monitor, reads, cfg.soak.pump_period_s, 0.0, 44.0);
    monitor.flush();
    EXPECT_GT(monitor.counters().journal_records_appended, 0u);
    EXPECT_GT(monitor.counters().snapshots_written, 0u);
  }
  ASSERT_GT(first_life_events, 0u);

  std::size_t second_life_events = 0;
  DurableMonitor monitor(cfg.durability, cfg.ingest, cfg.soak.pipeline,
                         [&](const PipelineEvent&) { ++second_life_events; });
  EXPECT_TRUE(monitor.recovery().snapshot_loaded);
  EXPECT_GT(monitor.recovery().snapshot_seq, 0u);
  EXPECT_GT(monitor.recovery().replayed_reads, 0u);
  EXPECT_EQ(monitor.recovery().corrupt_records_skipped, 0u);
  EXPECT_GT(monitor.recovery().resume_time_s, 40.0);
  EXPECT_FALSE(monitor.recovering());

  // Sequence numbering continues: new appends never reuse replayed seqs.
  const std::uint64_t seq_floor =
      monitor.recovery().snapshot_seq + monitor.recovery().replayed_reads;
  drive_monitor(monitor, reads, cfg.soak.pump_period_s, 44.0,
                cfg.soak.duration_s);
  monitor.flush();
  EXPECT_GT(monitor.counters().journal_records_appended, 0u);
  EXPECT_GE(monitor.frontend().validation().admitted,
            monitor.recovery().replayed_reads);
  EXPECT_GT(second_life_events, 0u);
  (void)seq_floor;
  EXPECT_NE(monitor.pipeline().rate_summary(1), nullptr);
}

TEST(DurableMonitor, CorruptJournalRecordsSkippedOnRecovery) {
  TempDir dir("monitor_corrupt");
  MonitorRunConfig cfg = monitor_run_config(dir);
  cfg.durability.snapshot_period_s = 1000.0;  // journal-only recovery
  const ReadStream reads = make_soak_population(cfg.soak);

  {
    DurableMonitor monitor(cfg.durability, cfg.ingest, cfg.soak.pipeline,
                           nullptr);
    drive_monitor(monitor, reads, cfg.soak.pump_period_s, 0.0, 20.0);
    monitor.flush();
  }
  const auto segments =
      files_with_ext(dir.path / "journal", ".tbj");
  ASSERT_FALSE(segments.empty());
  std::vector<std::uint8_t> bytes = read_file(segments[0]);
  bytes[24 + 12 + 3] ^= 0x40;  // corrupt the first record
  write_file(segments[0], bytes);

  DurableMonitor monitor(cfg.durability, cfg.ingest, cfg.soak.pipeline,
                         nullptr);
  EXPECT_FALSE(monitor.recovery().snapshot_loaded);
  EXPECT_EQ(monitor.recovery().corrupt_records_skipped, 1u);
  EXPECT_GT(monitor.recovery().replayed_reads, 0u);
}

TEST(DurableMonitor, ConfigValidation) {
  EXPECT_THROW(DurabilityConfig{}.validate(), std::invalid_argument);
  DurabilityConfig cfg;
  cfg.directory = "/tmp/x";
  cfg.snapshot_period_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.snapshot_period_s = 30.0;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.resolved_journal().directory, "/tmp/x/journal");
  EXPECT_EQ(cfg.resolved_snapshot().directory, "/tmp/x/snapshots");
}

// ---------------------------------------------------------------------------
// Crash-injection soak

namespace {

CrashSoakConfig crash_soak_config(const TempDir& dir, CrashPoint point) {
  CrashSoakConfig cfg;
  cfg.soak.n_users = 2;
  cfg.soak.tags_per_user = 1;
  cfg.soak.duration_s = 150.0;
  cfg.soak.pipeline.window_s = 15.0;
  cfg.soak.pipeline.warmup_s = 5.0;
  cfg.durability.directory = dir.str();
  cfg.durability.snapshot_period_s = 10.0;
  cfg.durability.journal.commit_batch = 32;
  cfg.durability.snapshot.fsync = false;  // keep the suite fast
  cfg.point = point;
  cfg.crash_after_s = 60.0;
  cfg.converge_margin_s = 10.0;
  return cfg;
}

}  // namespace

TEST(CrashSoak, EveryKillPointRecoversAndConverges) {
  for (std::size_t p = 0; p < kCrashPointCount; ++p) {
    const CrashPoint point = static_cast<CrashPoint>(p);
    TempDir dir(std::string("crash_") + std::to_string(p));
    const CrashSoakReport report =
        run_crash_soak(crash_soak_config(dir, point));
    EXPECT_TRUE(report.crashed) << crash_point_name(point);
    EXPECT_TRUE(report.recovered) << crash_point_name(point);
    EXPECT_GE(report.crash_time_s, 60.0) << crash_point_name(point);
    EXPECT_GT(report.compared_events, 0u) << crash_point_name(point);
    testutil::expect_no_violations(report.violations,
                                   std::string(crash_point_name(point)) +
                                       ": ");
    EXPECT_TRUE(report.ok()) << crash_point_name(point);
  }
}

// Chaos delivers reads out of order and in bursts, so it is the feed on
// which the order of offers and pumps inside a drive step shows. Every
// kill point must still recover and converge with the golden run.
TEST(CrashSoak, ConvergesUnderCompositeChaos) {
  for (std::size_t p = 0; p < kCrashPointCount; ++p) {
    const CrashPoint point = static_cast<CrashPoint>(p);
    TempDir dir(std::string("crash_chaos_") + std::to_string(p));
    CrashSoakConfig cfg = crash_soak_config(dir, point);
    cfg.soak.chaos = ChaosConfig::composite(0xC0FFEE);
    const CrashSoakReport report = run_crash_soak(cfg);
    EXPECT_TRUE(report.crashed) << crash_point_name(point);
    EXPECT_TRUE(report.recovered) << crash_point_name(point);
    EXPECT_EQ(report.compared_events, 126u) << crash_point_name(point);
    EXPECT_EQ(report.golden_events, run_soak(cfg.soak).events)
        << crash_point_name(point);
    testutil::expect_no_violations(report.violations,
                                   std::string(crash_point_name(point)) +
                                       ": ");
  }
}

TEST(CrashSoak, MidAppendCrashLeavesCountedTornTail) {
  TempDir dir("crash_torn");
  const CrashSoakReport report =
      run_crash_soak(crash_soak_config(dir, CrashPoint::MidJournalAppend));
  ASSERT_TRUE(report.crashed);
  ASSERT_TRUE(report.recovered);
  // The interrupted batch leaves a torn frame (or, if the cut landed
  // exactly between frames, just a shorter tail); either way recovery
  // must have scanned segments and never counted a fatal error.
  EXPECT_GT(report.counters.journal_segments_scanned, 0u);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
}

TEST(CrashSoak, ConfigValidation) {
  CrashSoakConfig cfg;
  cfg.durability.directory = "/tmp/x";
  cfg.crash_after_s = cfg.soak.duration_s + 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Durable soak

TEST(DurableSoak, CleanRunJournalsEveryAdmittedRead) {
  TempDir dir("durable_soak");
  SoakConfig soak;
  soak.n_users = 2;
  soak.tags_per_user = 1;
  soak.duration_s = 60.0;
  soak.pipeline.window_s = 15.0;
  soak.pipeline.warmup_s = 5.0;
  DurabilityConfig durability;
  durability.directory = dir.str();
  durability.snapshot_period_s = 15.0;
  durability.snapshot.fsync = false;

  const SoakReport report = run_durable_soak(soak, durability);
  testutil::expect_no_violations(report.violations);
  testutil::expect_queue_conservation(report.queue,
                                      soak.ingest.queue_capacity);
  EXPECT_GT(report.events, 0u);
  EXPECT_GT(report.durability.journal_records_appended, 0u);
  EXPECT_EQ(report.durability.journal_records_appended,
            report.validation.admitted);
  EXPECT_GE(report.durability.snapshots_written, 2u);
  EXPECT_GT(report.durability.journal_commits, 0u);
}

// The durability layer must be invisible in the event stream: the
// composite-chaos soak the ByteIdentity suite pins emits the same lines
// through a DurableMonitor as through a bare front-end.
TEST(DurableSoak, EventLogMatchesPlainSoak) {
  for (const bool skip_clean : {false, true}) {
    SoakConfig soak;
    soak.n_users = 8;
    soak.tags_per_user = 2;
    soak.duration_s = 120.0;
    soak.read_rate_hz = 8.0;
    soak.chaos = ChaosConfig::composite(0xC0FFEE);
    soak.ingest.max_users = 0;
    for (std::uint64_t user = 1; user <= 8; ++user)
      soak.ingest.monitored_users.push_back(user);
    soak.pipeline.skip_clean_users = skip_clean;
    TempDir dir(std::string("durable_vs_plain_") + (skip_clean ? "1" : "0"));
    DurabilityConfig durability;
    durability.directory = dir.str();
    durability.snapshot.fsync = false;

    const SoakReport plain = run_soak(soak);
    const SoakReport durable = run_durable_soak(soak, durability);
    testutil::expect_no_violations(durable.violations);
    EXPECT_EQ(durable.event_log, plain.event_log);
    EXPECT_EQ(durable.events, 848u);
    std::uint64_t hash = common::kFnvOffset;
    for (const std::string& line : durable.event_log)
      hash = common::fnv1a_line(hash, line);
    // The ByteIdentity core soak pins (test_capacity), re-pinned with
    // them when the adaptive band's seed became the decimated raw ACF.
    EXPECT_EQ(hash, skip_clean ? 0x6428738497a14285ull : 0xc5dd276f6a3b45a8ull);
  }
}

// ---------------------------------------------------------------------------
// ReadRecorder flush (satellite: no more flush-only-on-destruction)

TEST(ReadRecorder, PeriodicAndExplicitFlush) {
  TempDir dir("recorder");
  const fs::path path = dir.path / "capture.csv";
  ReadRecorder recorder(path.string(), 2);
  recorder.record(make_read(0.1, 1, 1, 0.5));
  recorder.record(make_read(0.2, 1, 1, 0.6));
  // flush_every=2: both rows must be on disk while the recorder lives.
  EXPECT_EQ(load_reads_csv(path.string()).size(), 2u);

  recorder.record(make_read(0.3, 1, 1, 0.7));
  recorder.flush();
  const ReadStream loaded = load_reads_csv(path.string());
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].time_s, 0.3);
  EXPECT_EQ(recorder.recorded(), 3u);
}

// ---------------------------------------------------------------------------
// load_reads_csv fuzz (satellite: malformed capture files)

namespace {

std::string valid_capture_csv(std::size_t rows) {
  ReadStream reads;
  for (std::size_t i = 0; i < rows; ++i)
    reads.push_back(make_read(0.1 * static_cast<double>(i), 1, 1,
                              0.01 * static_cast<double>(i)));
  std::ostringstream out;
  save_reads_csv(out, reads);
  return out.str();
}

/// Error must carry a line number ("line N: ...").
void expect_line_numbered_error(const std::string& csv,
                                const std::string& expect_line) {
  std::istringstream in(csv);
  try {
    load_reads_csv(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expect_line), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(LoadReadsCsvFuzz, TruncatedLine) {
  std::string csv = valid_capture_csv(3);
  // Cut the final row in half (drop the trailing cells + newline).
  csv.resize(csv.rfind(',') - 10);
  expect_line_numbered_error(csv + "\n", "line 4");
}

TEST(LoadReadsCsvFuzz, GarbageFields) {
  const std::string csv = valid_capture_csv(1) +
                          "zig,zag,zog,1,2,3,4,5\n";
  expect_line_numbered_error(csv, "line 3");
}

TEST(LoadReadsCsvFuzz, DuplicateHeaderRow) {
  const std::string csv =
      valid_capture_csv(1) + std::string(kReplayCsvHeader) + "\n";
  // The repeated header parses as a row whose first cell is not a
  // number — a line-numbered error, not an accepted phantom read.
  expect_line_numbered_error(csv, "line 3");
}

TEST(LoadReadsCsvFuzz, EmbeddedNulBytes) {
  std::string csv = valid_capture_csv(2);
  const std::size_t second_row = csv.find('\n', csv.find('\n') + 1) + 1;
  ASSERT_LT(second_row, csv.size());
  csv[second_row] = '\0';  // first byte of the last row
  expect_line_numbered_error(csv, "line 3");
}

TEST(LoadReadsCsvFuzz, EmptyAndHeaderlessInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(load_reads_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("not,a,capture\n1,2,3\n");
    EXPECT_THROW(load_reads_csv(in), std::runtime_error);
  }
}

TEST(LoadReadsCsvFuzz, SeededRandomMutationsNeverCrash) {
  const std::string base = valid_capture_csv(8);
  common::Rng rng(0xF00DF00Dull);
  std::size_t parsed = 0, refused = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string csv = base;
    const int flips = rng.uniform_int(1, 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(csv.size()) - 1));
      csv[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    std::istringstream in(csv);
    try {
      load_reads_csv(in);
      ++parsed;  // mutation landed somewhere harmless
    } catch (const std::runtime_error&) {
      ++refused;  // must be a clean, typed refusal — never UB or abort
    }
  }
  EXPECT_EQ(parsed + refused, 300u);
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Names stay total (logging must never invoke UB on corrupt values)

TEST(Durability, CrashPointNamesAreTotal) {
  for (std::size_t p = 0; p < kCrashPointCount; ++p)
    EXPECT_NE(std::string(crash_point_name(static_cast<CrashPoint>(p))),
              "unknown-crash-point");
  EXPECT_EQ(std::string(crash_point_name(static_cast<CrashPoint>(250))),
            "unknown-crash-point");
}
