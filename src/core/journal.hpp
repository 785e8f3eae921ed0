// Write-ahead read journal: crash-safe capture of every admitted
// TagRead.
//
// The realtime pipeline keeps all per-user state in RAM; a process
// crash would silently restart the ward cold through a full warm-up —
// exactly the window where an apnea event would be missed. The journal
// is the first half of the durability answer (core/snapshot is the
// second): every read the ingest validator admits is appended, and on
// restart the recovery manager (core/recovery) replays the tail past
// the newest snapshot to rebuild the exact pre-crash window.
//
// On-disk format (all integers little-endian):
//
//   segment file  journal-<ordinal:016x>.tbj
//     8 B  magic "TBJSEG01"
//     u32  format version (kJournalFormatVersion)
//     u64  first record sequence number of the segment
//     u32  CRC-32 of the 12 bytes above (version + first_seq)
//   record frame  (repeated; never split across segments)
//     u32  frame magic 0x54424A52 ("TBJR")
//     u32  payload length
//     u32  CRC-32 of the payload
//     payload: u64 seq, then the TagRead fields
//
// Durability discipline: appends are group-committed — encoded into a
// preallocated buffer (allocation-free once warm) and written to the OS
// in one batch per `commit_batch` records / `commit_interval_s` of
// stream time — so the hot path never waits on the disk per read.
// Segments rotate at a byte cap and retention is bounded (prune by
// snapshot progress + a hard max_segments cap). The scanner never
// trusts the file: bad headers, bit-flipped records, torn tails and
// inter-frame garbage are skipped, counted and resynced past, never
// fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/metrics.hpp"
#include "core/types.hpp"

namespace tagbreathe::core {

inline constexpr std::uint32_t kJournalFormatVersion = 1;

/// Durability-layer failure. The writers throw it on an I/O error or an
/// unusable directory. The decoders throw it on bytes they cannot use: a
/// read past the end of a record or snapshot section, and a snapshot
/// whose magic, header CRC, version, section CRC, section length,
/// element count or required sections are wrong. load_newest_snapshot
/// catches it and falls back to an older snapshot; scan_journal catches
/// it for a record that passed its CRC and counts the record corrupt.
/// Other journal damage (bad segment headers, CRC mismatches, garbage
/// between frames, torn tails) is skipped and counted, never thrown.
struct DurabilityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown by a crash-injection hook to simulate the process dying at a
/// seeded kill point. Writers treat it like any other mid-write failure
/// (the file is left torn); the harness catches it and recovers.
struct SimulatedCrash : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Seeded kill points the crash-injection harness can fire at.
enum class CrashPoint : std::uint8_t {
  MidJournalAppend = 0,   // half a commit batch written, frame torn
  PostJournalCommit = 1,  // batch fully durable, process dies after
  MidSnapshotWrite = 2,   // half the snapshot temp file written
  MidSnapshotRename = 3,  // temp durable but never renamed into place
  PostSnapshotFsync = 4,  // snapshot fully durable, dies after
};
inline constexpr std::size_t kCrashPointCount = 5;
const char* crash_point_name(CrashPoint point) noexcept;

/// Test-only hooks threaded through the writers. `at_point` is invoked
/// at each kill point; throwing SimulatedCrash from it leaves the file
/// in exactly the torn state a real crash there would.
struct DurabilityHooks {
  std::function<void(CrashPoint)> at_point;
};

// ---------------------------------------------------------------------------
// Byte codec of journal frames and snapshot sections: little-endian on
// disk; a truncated read throws DurabilityError.

using ByteWriter = common::ByteWriter<common::ByteOrder::Little>;
using ByteReader =
    common::ByteReader<common::ByteOrder::Little, DurabilityError>;

/// TagRead wire codec shared by journal and snapshot: f64 time, 12 B EPC,
/// u8 antenna, u16 channel, 4×f64 radio fields.
inline constexpr std::size_t kTagReadBytes = 8 + 12 + 1 + 2 + 4 * 8;
void encode_tag_read(ByteWriter& out, const TagRead& read);
TagRead decode_tag_read(ByteReader& in);

// ---------------------------------------------------------------------------
// Writer

struct JournalConfig {
  /// Directory holding the segment files (created if missing).
  std::string directory;
  /// Rotate to a new segment once the current one reaches this size.
  std::size_t segment_max_bytes = 1u << 20;
  /// Hard retention cap: oldest segments beyond this are deleted even
  /// if un-snapshotted (bounded disk beats unbounded history).
  std::size_t max_segments = 16;
  /// Group commit: flush to the OS after this many buffered appends...
  std::size_t commit_batch = 64;
  /// ...or once stream time advances this far past the last commit.
  double commit_interval_s = 1.0;
  /// fsync on every commit (true) or only on rotation/shutdown (false).
  /// Commit without fsync survives a process crash but not a kernel
  /// panic — the right default for a monitoring feed.
  bool fsync_on_commit = false;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Append side. Single-threaded (runs on the analysis thread, inside
/// the ingest pump). After any failure mid-write — a real I/O error or
/// an injected crash — the writer wedges itself: every later append and
/// commit is a no-op, so a torn file is never "repaired" by a
/// destructor flush the real crash would not have run.
class JournalWriter {
 public:
  /// `next_seq` is the first sequence number this writer will assign
  /// (recovery passes max-replayed + 1). Always starts a fresh segment;
  /// a torn tail from a previous life is left for the scanner to skip.
  JournalWriter(JournalConfig config, std::uint64_t next_seq = 1,
                const DurabilityHooks* hooks = nullptr);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one read; group-commits when the batch or the stream-time
  /// interval fills. Returns the assigned sequence number (0 if wedged).
  std::uint64_t append(const TagRead& read);

  /// Flushes everything buffered (no-op when empty or wedged).
  void commit();

  /// Time-based commit trigger for quiet periods: commits iff records
  /// are buffered and `now_s` is past the commit interval. Append
  /// triggers cover the busy case; the pump calls this so a tail never
  /// sits unflushed just because the reader went silent.
  void maybe_commit(double now_s);

  /// Deletes segments whose every record is <= `upto_seq` (the newest
  /// snapshot already covers them), then enforces max_segments.
  void prune(std::uint64_t upto_seq);

  std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Highest sequence number known flushed to the OS (0 = none).
  std::uint64_t last_committed_seq() const noexcept { return committed_seq_; }
  bool wedged() const noexcept { return wedged_; }
  const DurabilityCounters& counters() const noexcept { return counters_; }

 private:
  void open_segment();
  void write_all(std::span<const std::uint8_t> bytes);

  JournalConfig config_;
  const DurabilityHooks* hooks_;
  int fd_ = -1;
  std::uint64_t segment_ordinal_ = 0;
  std::size_t segment_bytes_ = 0;
  std::uint64_t next_seq_;
  std::uint64_t committed_seq_ = 0;
  std::uint64_t buffered_seq_ = 0;
  std::size_t pending_records_ = 0;
  double last_commit_stream_s_ = -1.0;
  double newest_stream_s_ = -1.0;
  bool wedged_ = false;
  ByteWriter pending_;
  ByteWriter frame_;  // per-record scratch, reused
  DurabilityCounters counters_;
};

// ---------------------------------------------------------------------------
// Scanner

struct JournalRecord {
  std::uint64_t seq = 0;
  TagRead read;
};

struct JournalScanResult {
  /// Records delivered to the sink (intact and past `after_seq`).
  std::uint64_t delivered = 0;
  /// Highest intact sequence number seen anywhere (0 = none).
  std::uint64_t max_seq = 0;
  /// Skip/corruption accounting (replay_* and journal_* fields).
  DurabilityCounters counters;
};

/// Replays every intact record with seq > `after_seq`, in segment/file
/// order, through `sink`. Corruption — unreadable headers, CRC
/// mismatches, torn tails, inter-frame garbage — is skipped, counted
/// and resynced past; a missing directory scans as empty. Never throws
/// on file *content*; only on environmental failure (unreadable dir).
JournalScanResult scan_journal(
    const std::string& directory, std::uint64_t after_seq,
    const std::function<void(const JournalRecord&)>& sink);

}  // namespace tagbreathe::core
