#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "common/crc32.hpp"

namespace tagbreathe::core {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[8] = {'T', 'B', 'J', 'S', 'E', 'G', '0', '1'};
constexpr std::uint32_t kFrameMagic = 0x54424A52u;  // "TBJR" little-endian
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4;
constexpr std::size_t kRecordPayloadBytes = 8 + kTagReadBytes;  // u64 seq
// Sanity bound on the length field: one flipped bit must not make the
// scanner treat megabytes of file as a single frame.
constexpr std::uint32_t kMaxPayloadBytes = 4096;

void maybe_hook(const DurabilityHooks* hooks, CrashPoint point) {
  if (hooks != nullptr && hooks->at_point) hooks->at_point(point);
}

std::string segment_name(std::uint64_t ordinal) {
  char name[32];
  std::snprintf(name, sizeof(name), "journal-%016llx.tbj",
                static_cast<unsigned long long>(ordinal));
  return name;
}

/// Ordinal from a segment filename; nullopt for anything else.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  if (name.size() != 28 || name.rfind("journal-", 0) != 0 ||
      name.compare(24, 4, ".tbj") != 0)
    return std::nullopt;
  std::uint64_t ordinal = 0;
  for (std::size_t i = 8; i < 24; ++i) {
    const char c = name[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
    ordinal = (ordinal << 4) | digit;
  }
  return ordinal;
}

/// Segment files in the directory, ordered by ordinal (append order).
std::vector<std::pair<std::uint64_t, fs::path>> list_segments(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto ordinal = parse_segment_name(entry.path().filename().string());
    if (ordinal) segments.emplace_back(*ordinal, entry.path());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

const char* crash_point_name(CrashPoint point) noexcept {
  switch (point) {
    case CrashPoint::MidJournalAppend: return "mid-journal-append";
    case CrashPoint::PostJournalCommit: return "post-journal-commit";
    case CrashPoint::MidSnapshotWrite: return "mid-snapshot-write";
    case CrashPoint::MidSnapshotRename: return "mid-snapshot-rename";
    case CrashPoint::PostSnapshotFsync: return "post-snapshot-fsync";
    default: return "unknown-crash-point";
  }
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader

void ByteWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::put_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::put_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void ByteReader::need(std::size_t n) const {
  if (size_ - pos_ < n)
    throw DurabilityError("ByteReader: truncated input (need " +
                          std::to_string(n) + " bytes, have " +
                          std::to_string(size_ - pos_) + ")");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::bytes(void* out, std::size_t size) {
  need(size);
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

void encode_tag_read(ByteWriter& out, const TagRead& read) {
  out.put_f64(read.time_s);
  out.put_bytes(read.epc.bytes().data(), rfid::Epc96::kBytes);
  out.put_u8(read.antenna_id);
  out.put_u16(read.channel_index);
  out.put_f64(read.frequency_hz);
  out.put_f64(read.rssi_dbm);
  out.put_f64(read.phase_rad);
  out.put_f64(read.doppler_hz);
}

TagRead decode_tag_read(ByteReader& in) {
  TagRead read;
  read.time_s = in.f64();
  std::array<std::uint8_t, rfid::Epc96::kBytes> epc_bytes;
  in.bytes(epc_bytes.data(), epc_bytes.size());
  read.epc = rfid::Epc96(epc_bytes);
  read.antenna_id = in.u8();
  read.channel_index = in.u16();
  read.frequency_hz = in.f64();
  read.rssi_dbm = in.f64();
  read.phase_rad = in.f64();
  read.doppler_hz = in.f64();
  return read;
}

// ---------------------------------------------------------------------------
// JournalConfig

void JournalConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("JournalConfig: " + what);
  };
  if (directory.empty()) bad("directory must be set");
  if (segment_max_bytes < kSegmentHeaderBytes + kFrameHeaderBytes +
                              kRecordPayloadBytes)
    bad("segment_max_bytes too small to hold one record");
  if (max_segments == 0) bad("max_segments must be positive");
  if (commit_batch == 0) bad("commit_batch must be positive");
  if (!(commit_interval_s > 0.0) || !std::isfinite(commit_interval_s))
    bad("commit_interval_s must be positive and finite");
}

// ---------------------------------------------------------------------------
// JournalWriter

JournalWriter::JournalWriter(JournalConfig config, std::uint64_t next_seq,
                             const DurabilityHooks* hooks)
    : config_(std::move(config)), hooks_(hooks), next_seq_(next_seq) {
  config_.validate();
  if (next_seq_ == 0) next_seq_ = 1;
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec)
    throw DurabilityError("JournalWriter: cannot create directory " +
                          config_.directory + ": " + ec.message());
  const auto existing = list_segments(config_.directory);
  segment_ordinal_ = existing.empty() ? 1 : existing.back().first + 1;
  pending_.reserve((kFrameHeaderBytes + kRecordPayloadBytes) *
                   config_.commit_batch);
  open_segment();
}

JournalWriter::~JournalWriter() {
  // Best effort: a graceful shutdown keeps the tail; a wedged writer
  // (crash already simulated or I/O already failed) keeps its hands off.
  try {
    commit();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  if (fd_ >= 0) {
    if (!wedged_) ::fsync(fd_);
    ::close(fd_);
  }
}

void JournalWriter::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DurabilityError(std::string("JournalWriter: write failed: ") +
                            std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

void JournalWriter::open_segment() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  const fs::path path =
      fs::path(config_.directory) / segment_name(segment_ordinal_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0)
    throw DurabilityError("JournalWriter: cannot open " + path.string() +
                          ": " + std::strerror(errno));
  ByteWriter header;
  header.put_u32(kJournalFormatVersion);
  header.put_u64(next_seq_);
  const std::uint32_t crc = common::crc32(header.data(), header.size());
  ByteWriter full;
  full.put_bytes(kSegmentMagic, sizeof(kSegmentMagic));
  full.put_bytes(header.data(), header.size());
  full.put_u32(crc);
  write_all(full.data(), full.size());
  segment_bytes_ = full.size();
  counters_.journal_bytes_written += full.size();
  ++counters_.journal_segments_created;
  ++segment_ordinal_;
}

std::uint64_t JournalWriter::append(const TagRead& read) {
  if (wedged_) return 0;
  const std::uint64_t seq = next_seq_++;

  frame_.clear();
  frame_.put_u64(seq);
  encode_tag_read(frame_, read);
  const std::uint32_t crc = common::crc32(frame_.data(), frame_.size());

  pending_.put_u32(kFrameMagic);
  pending_.put_u32(static_cast<std::uint32_t>(frame_.size()));
  pending_.put_u32(crc);
  pending_.put_bytes(frame_.data(), frame_.size());
  ++pending_records_;
  buffered_seq_ = seq;
  newest_stream_s_ = std::max(newest_stream_s_, read.time_s);
  if (last_commit_stream_s_ < 0.0) last_commit_stream_s_ = read.time_s;

  if (pending_records_ >= config_.commit_batch ||
      newest_stream_s_ - last_commit_stream_s_ >= config_.commit_interval_s)
    commit();
  return seq;
}

void JournalWriter::commit() {
  if (wedged_ || pending_records_ == 0) return;

  // Rotate at commit boundaries only, so a frame never spans segments.
  if (segment_bytes_ + pending_.size() > config_.segment_max_bytes &&
      segment_bytes_ > kSegmentHeaderBytes)
    open_segment();

  // Wedge before touching the file: if anything below throws (I/O error
  // or injected crash) the writer stays dead, exactly like the process.
  wedged_ = true;
  const std::size_t half = pending_.size() / 2;
  write_all(pending_.data(), half);
  maybe_hook(hooks_, CrashPoint::MidJournalAppend);
  write_all(pending_.data() + half, pending_.size() - half);
  if (config_.fsync_on_commit && ::fsync(fd_) != 0)
    throw DurabilityError(std::string("JournalWriter: fsync failed: ") +
                          std::strerror(errno));
  maybe_hook(hooks_, CrashPoint::PostJournalCommit);
  wedged_ = false;

  segment_bytes_ += pending_.size();
  counters_.journal_bytes_written += pending_.size();
  counters_.journal_records_appended += pending_records_;
  ++counters_.journal_commits;
  committed_seq_ = buffered_seq_;
  last_commit_stream_s_ = newest_stream_s_;
  pending_.clear();
  pending_records_ = 0;
}

void JournalWriter::maybe_commit(double now_s) {
  if (wedged_ || pending_records_ == 0) return;
  if (now_s - last_commit_stream_s_ >= config_.commit_interval_s) commit();
}

void JournalWriter::prune(std::uint64_t upto_seq) {
  const auto segments = list_segments(config_.directory);
  if (segments.size() <= 1) return;

  // First-seq of each segment, from its header (0 = unreadable).
  std::vector<std::uint64_t> first_seq(segments.size(), 0);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::ifstream in(segments[i].second, std::ios::binary);
    char magic[8];
    std::uint8_t rest[12];
    if (in.read(magic, 8) &&
        std::memcmp(magic, kSegmentMagic, 8) == 0 &&
        in.read(reinterpret_cast<char*>(rest), sizeof(rest))) {
      ByteReader r(rest, sizeof(rest));
      r.u32();  // version
      first_seq[i] = r.u64();
    }
  }

  std::size_t keep_from = 0;
  // Segment i is fully covered by the snapshot when the *next* segment
  // starts at or below upto_seq + 1 (records are sequential).
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (first_seq[i + 1] != 0 && first_seq[i + 1] <= upto_seq + 1)
      keep_from = i + 1;
  }
  // Hard retention cap, oldest first (bounded disk wins over history).
  if (segments.size() - keep_from > config_.max_segments)
    keep_from = segments.size() - config_.max_segments;

  for (std::size_t i = 0; i < keep_from; ++i) {
    std::error_code ec;
    if (fs::remove(segments[i].second, ec)) ++counters_.journal_segments_pruned;
  }
}

// ---------------------------------------------------------------------------
// Scanner

JournalScanResult scan_journal(
    const std::string& directory, std::uint64_t after_seq,
    const std::function<void(const JournalRecord&)>& sink) {
  JournalScanResult result;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return result;

  for (const auto& [ordinal, path] : list_segments(directory)) {
    (void)ordinal;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      ++result.counters.journal_segments_rejected;
      continue;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ++result.counters.journal_segments_scanned;

    // Segment header: magic + version + first_seq + CRC.
    if (bytes.size() < kSegmentHeaderBytes ||
        std::memcmp(bytes.data(), kSegmentMagic, 8) != 0) {
      ++result.counters.journal_segments_rejected;
      continue;
    }
    {
      ByteReader header(bytes.data() + 8, kSegmentHeaderBytes - 8);
      const std::uint8_t* body = bytes.data() + 8;
      const std::uint32_t expect = common::crc32(body, 12);
      const std::uint32_t version = header.u32();
      header.u64();  // first_seq (informational; records carry their own)
      ByteReader crc_reader(bytes.data() + 20, 4);
      if (crc_reader.u32() != expect || version != kJournalFormatVersion) {
        ++result.counters.journal_segments_rejected;
        continue;
      }
    }

    std::size_t pos = kSegmentHeaderBytes;
    bool tail_torn = false;
    while (pos < bytes.size()) {
      const std::size_t left = bytes.size() - pos;
      if (left < kFrameHeaderBytes) {
        tail_torn = true;
        break;
      }
      // Resync: hunt for the frame magic byte-by-byte after corruption.
      ByteReader peek(bytes.data() + pos, 4);
      if (peek.u32() != kFrameMagic) {
        ++pos;
        continue;
      }
      ByteReader head(bytes.data() + pos, kFrameHeaderBytes);
      head.u32();  // magic
      const std::uint32_t len = head.u32();
      const std::uint32_t crc = head.u32();
      if (len == 0 || len > kMaxPayloadBytes) {
        ++result.counters.journal_records_corrupt;
        ++pos;  // bogus length: resync from the next byte
        continue;
      }
      if (left < kFrameHeaderBytes + len) {
        // Frame runs past the file: a torn append at the tail.
        tail_torn = true;
        break;
      }
      const std::uint8_t* payload = bytes.data() + pos + kFrameHeaderBytes;
      if (common::crc32(payload, len) != crc) {
        ++result.counters.journal_records_corrupt;
        ++pos;  // bit flip somewhere in the frame: resync
        continue;
      }
      try {
        ByteReader body(payload, len);
        JournalRecord record;
        record.seq = body.u64();
        record.read = decode_tag_read(body);
        result.max_seq = std::max(result.max_seq, record.seq);
        if (record.seq > after_seq) {
          sink(record);
          ++result.delivered;
          ++result.counters.replay_records;
        }
      } catch (const DurabilityError&) {
        // CRC passed but the payload is shorter than the codec needs —
        // only possible with a hand-truncated record; count, don't die.
        ++result.counters.journal_records_corrupt;
      }
      pos += kFrameHeaderBytes + len;
    }
    if (tail_torn) ++result.counters.journal_truncated_tails;
  }
  return result;
}

}  // namespace tagbreathe::core
