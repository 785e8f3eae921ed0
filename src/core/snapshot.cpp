#include "core/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/crc32.hpp"

namespace tagbreathe::core {

namespace fs = std::filesystem;

namespace {

constexpr char kSnapshotMagic[8] = {'T', 'B', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 4 + 4;

void maybe_hook(const DurabilityHooks* hooks, CrashPoint point) {
  if (hooks != nullptr && hooks->at_point) hooks->at_point(point);
}

std::string snapshot_name(std::uint64_t ordinal) {
  char name[32];
  std::snprintf(name, sizeof(name), "snapshot-%016llx.tbs",
                static_cast<unsigned long long>(ordinal));
  return name;
}

std::optional<std::uint64_t> parse_snapshot_name(const std::string& name) {
  if (name.size() != 29 || name.rfind("snapshot-", 0) != 0 ||
      name.compare(25, 4, ".tbs") != 0)
    return std::nullopt;
  std::uint64_t ordinal = 0;
  for (std::size_t i = 9; i < 25; ++i) {
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

std::vector<std::pair<std::uint64_t, fs::path>> list_snapshots(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, fs::path>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto ordinal = parse_snapshot_name(entry.path().filename().string());
    if (ordinal) files.emplace_back(*ordinal, entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --- section codecs --------------------------------------------------------

// Smallest encoded size of one element of each counted list.
constexpr std::size_t kPipelineUserBytes = 28;    // id, 2 times, 4 flags
constexpr std::size_t kSeenBytes = 16;            // user, count
constexpr std::size_t kDemuxStreamBytes = 21;     // key + empty read list
constexpr std::size_t kValidatorStreamBytes = 29; // key, time, phase
constexpr std::size_t kLruBytes = 8;

/// Reads an element count and bounds it by what the rest of the section
/// can hold, so a corrupt count that still passes the CRC fails as a
/// DurabilityError rather than as an oversized reserve.
std::uint64_t read_count(ByteReader& in, std::size_t min_element_bytes) {
  const std::uint64_t n = in.u64();
  if (n > in.remaining() / min_element_bytes)
    throw DurabilityError("snapshot: element count " + std::to_string(n) +
                          " exceeds the section size");
  return n;
}

void encode_reads(ByteWriter& out, const std::vector<TagRead>& reads) {
  out.put_u64(reads.size());
  for (const TagRead& r : reads) encode_tag_read(out, r);
}

std::vector<TagRead> decode_reads(ByteReader& in) {
  const std::uint64_t n = read_count(in, kTagReadBytes);
  std::vector<TagRead> reads;
  reads.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) reads.push_back(decode_tag_read(in));
  return reads;
}

void encode_pipeline(ByteWriter& out, const PipelineState& state) {
  out.put_f64(state.now_s);
  out.put_f64(state.start_s);
  out.put_f64(state.next_update_s);
  out.put_u8(state.started ? 1 : 0);
  out.put_u64(state.users_evicted);
  out.put_u64(state.users.size());
  for (const PipelineState::User& u : state.users) {
    out.put_u64(u.user_id);
    out.put_f64(u.last_read_s);
    out.put_f64(u.last_crossing_s);
    out.put_u8(u.in_apnea ? 1 : 0);
    out.put_u8(u.lost ? 1 : 0);
    out.put_u8(u.ever_reliable ? 1 : 0);
    out.put_u8(static_cast<std::uint8_t>(u.health));
  }
  out.put_u64(state.last_seen_reads.size());
  for (const auto& [user, seen] : state.last_seen_reads) {
    out.put_u64(user);
    out.put_u64(seen);
  }
}

PipelineState decode_pipeline(ByteReader& in) {
  PipelineState state;
  state.now_s = in.f64();
  state.start_s = in.f64();
  state.next_update_s = in.f64();
  state.started = in.u8() != 0;
  state.users_evicted = in.u64();
  const std::uint64_t n_users = read_count(in, kPipelineUserBytes);
  state.users.reserve(n_users);
  for (std::uint64_t i = 0; i < n_users; ++i) {
    PipelineState::User u;
    u.user_id = in.u64();
    u.last_read_s = in.f64();
    u.last_crossing_s = in.f64();
    u.in_apnea = in.u8() != 0;
    u.lost = in.u8() != 0;
    u.ever_reliable = in.u8() != 0;
    u.health = static_cast<SignalHealth>(in.u8());
    state.users.push_back(u);
  }
  const std::uint64_t n_seen = read_count(in, kSeenBytes);
  state.last_seen_reads.reserve(n_seen);
  for (std::uint64_t i = 0; i < n_seen; ++i) {
    const std::uint64_t user = in.u64();
    const std::uint64_t seen = in.u64();
    state.last_seen_reads.emplace_back(user, seen);
  }
  return state;
}

void encode_demux(ByteWriter& out, const DemuxState& state) {
  out.put_u64(state.accepted);
  out.put_u64(state.ignored);
  out.put_u64(state.shed);
  out.put_u64(state.streams.size());
  for (const DemuxState::Stream& s : state.streams) {
    out.put_u64(s.key.user_id);
    out.put_u32(s.key.tag_id);
    out.put_u8(s.key.antenna_id);
    encode_reads(out, s.reads);
  }
  out.put_u64(state.reads_seen.size());
  for (const auto& [user, seen] : state.reads_seen) {
    out.put_u64(user);
    out.put_u64(seen);
  }
}

DemuxState decode_demux(ByteReader& in) {
  DemuxState state;
  state.accepted = in.u64();
  state.ignored = in.u64();
  state.shed = in.u64();
  const std::uint64_t n_streams = read_count(in, kDemuxStreamBytes);
  state.streams.reserve(n_streams);
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    DemuxState::Stream s;
    s.key.user_id = in.u64();
    s.key.tag_id = in.u32();
    s.key.antenna_id = in.u8();
    s.reads = decode_reads(in);
    state.streams.push_back(std::move(s));
  }
  const std::uint64_t n_seen = read_count(in, kSeenBytes);
  state.reads_seen.reserve(n_seen);
  for (std::uint64_t i = 0; i < n_seen; ++i) {
    const std::uint64_t user = in.u64();
    const std::uint64_t seen = in.u64();
    state.reads_seen.emplace_back(user, seen);
  }
  return state;
}

void encode_validator(ByteWriter& out, const ValidatorState& state) {
  out.put_u8(state.any_admitted ? 1 : 0);
  out.put_f64(state.last_admitted_s);
  out.put_u64(state.streams.size());
  for (const ValidatorState::Stream& s : state.streams) {
    out.put_u64(s.user_id);
    out.put_u32(s.tag_id);
    out.put_u8(s.antenna_id);
    out.put_f64(s.last_time_s);
    out.put_f64(s.last_phase_rad);
  }
  out.put_u64(state.lru_order.size());
  for (const std::uint64_t user : state.lru_order) out.put_u64(user);
}

ValidatorState decode_validator(ByteReader& in) {
  ValidatorState state;
  state.any_admitted = in.u8() != 0;
  state.last_admitted_s = in.f64();
  const std::uint64_t n_streams = read_count(in, kValidatorStreamBytes);
  state.streams.reserve(n_streams);
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    ValidatorState::Stream s;
    s.user_id = in.u64();
    s.tag_id = in.u32();
    s.antenna_id = in.u8();
    s.last_time_s = in.f64();
    s.last_phase_rad = in.f64();
    state.streams.push_back(s);
  }
  const std::uint64_t n_lru = read_count(in, kLruBytes);
  state.lru_order.reserve(n_lru);
  for (std::uint64_t i = 0; i < n_lru; ++i)
    state.lru_order.push_back(in.u64());
  return state;
}

void append_section(ByteWriter& out, SnapshotSection id,
                    const ByteWriter& payload) {
  out.put_u32(static_cast<std::uint32_t>(id));
  out.put_u32(static_cast<std::uint32_t>(payload.size()));
  out.put_u32(common::crc32(payload.data(), payload.size()));
  out.put_bytes(payload.data(), payload.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole-file codec

std::vector<std::uint8_t> encode_snapshot(const SnapshotData& data) {
  ByteWriter header_body;
  header_body.put_u32(kSnapshotFormatVersion);
  header_body.put_u64(data.last_journal_seq);
  header_body.put_f64(data.now_s);
  header_body.put_u32(3);  // section count

  ByteWriter out;
  out.put_bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.put_bytes(header_body.data(), header_body.size());
  out.put_u32(common::crc32(header_body.data(), header_body.size()));

  ByteWriter section;
  encode_pipeline(section, data.pipeline);
  append_section(out, SnapshotSection::Pipeline, section);
  section.clear();
  encode_demux(section, data.pipeline.demux);
  append_section(out, SnapshotSection::Demux, section);
  section.clear();
  encode_validator(section, data.validator);
  append_section(out, SnapshotSection::Validator, section);
  return std::vector<std::uint8_t>(out.data(), out.data() + out.size());
}

SnapshotData decode_snapshot(const std::uint8_t* bytes, std::size_t size) {
  if (size < kHeaderBytes)
    throw DurabilityError("snapshot: file shorter than the header");
  if (std::memcmp(bytes, kSnapshotMagic, 8) != 0)
    throw DurabilityError("snapshot: bad magic");
  ByteReader header(bytes + 8, kHeaderBytes - 8);
  const std::uint32_t version = header.u32();
  SnapshotData data;
  data.last_journal_seq = header.u64();
  data.now_s = header.f64();
  const std::uint32_t n_sections = header.u32();
  const std::uint32_t header_crc = header.u32();
  if (common::crc32(bytes + 8, kHeaderBytes - 8 - 4) != header_crc)
    throw DurabilityError("snapshot: header CRC mismatch");
  if (version != kSnapshotFormatVersion)
    throw DurabilityError("snapshot: unsupported format version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kSnapshotFormatVersion) + ")");

  std::size_t pos = kHeaderBytes;
  bool have_pipeline = false, have_demux = false, have_validator = false;
  DemuxState demux;
  for (std::uint32_t s = 0; s < n_sections; ++s) {
    ByteReader head(bytes + pos, size - pos);
    const std::uint32_t id = head.u32();
    const std::uint32_t len = head.u32();
    const std::uint32_t crc = head.u32();
    pos += 12;
    if (size - pos < len)
      throw DurabilityError("snapshot: section " + std::to_string(id) +
                            " truncated");
    if (common::crc32(bytes + pos, len) != crc)
      throw DurabilityError("snapshot: section " + std::to_string(id) +
                            " CRC mismatch");
    ByteReader body(bytes + pos, len);
    switch (static_cast<SnapshotSection>(id)) {
      case SnapshotSection::Pipeline:
        data.pipeline = decode_pipeline(body);
        have_pipeline = true;
        break;
      case SnapshotSection::Demux:
        demux = decode_demux(body);
        have_demux = true;
        break;
      case SnapshotSection::Validator:
        data.validator = decode_validator(body);
        have_validator = true;
        break;
      default:
        // Unknown sections from a newer minor writer are skippable by
        // construction (length-prefixed); ignore them.
        break;
    }
    pos += len;
  }
  if (!have_pipeline || !have_demux || !have_validator)
    throw DurabilityError("snapshot: missing required section");
  data.pipeline.demux = std::move(demux);
  return data;
}

// ---------------------------------------------------------------------------
// SnapshotConfig / SnapshotWriter

void SnapshotConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("SnapshotConfig: " + what);
  };
  if (directory.empty()) bad("directory must be set");
  if (keep < 2) bad("keep must be >= 2 (fallback needs a predecessor)");
}

SnapshotWriter::SnapshotWriter(SnapshotConfig config,
                               const DurabilityHooks* hooks)
    : config_(std::move(config)), hooks_(hooks) {
  config_.validate();
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  if (ec)
    throw DurabilityError("SnapshotWriter: cannot create directory " +
                          config_.directory + ": " + ec.message());
  const auto existing = list_snapshots(config_.directory);
  next_ordinal_ = existing.empty() ? 1 : existing.back().first + 1;
}

std::string SnapshotWriter::write(const SnapshotData& data) {
  if (wedged_)
    throw DurabilityError("SnapshotWriter: wedged after earlier failure");
  const std::vector<std::uint8_t> bytes = encode_snapshot(data);
  const fs::path final_path =
      fs::path(config_.directory) / snapshot_name(next_ordinal_);
  const fs::path tmp_path = final_path.string() + ".tmp";

  wedged_ = true;  // cleared only on full success (see JournalWriter)
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw DurabilityError("SnapshotWriter: cannot open " + tmp_path.string() +
                          ": " + std::strerror(errno));
  try {
    const std::size_t half = bytes.size() / 2;
    std::size_t written = 0;
    const auto write_range = [&](std::size_t from, std::size_t to) {
      while (from + written < to) {
        const ssize_t n =
            ::write(fd, bytes.data() + from + written, to - from - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          throw DurabilityError(
              std::string("SnapshotWriter: write failed: ") +
              std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
      }
      written = 0;
    };
    write_range(0, half);
    maybe_hook(hooks_, CrashPoint::MidSnapshotWrite);
    write_range(half, bytes.size());
    if (config_.fsync && ::fsync(fd) != 0)
      throw DurabilityError(std::string("SnapshotWriter: fsync failed: ") +
                            std::strerror(errno));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  maybe_hook(hooks_, CrashPoint::MidSnapshotRename);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0)
    throw DurabilityError("SnapshotWriter: rename failed: " +
                          std::string(std::strerror(errno)));
  if (config_.fsync) {
    const int dir_fd = ::open(config_.directory.c_str(), O_RDONLY | O_CLOEXEC);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  maybe_hook(hooks_, CrashPoint::PostSnapshotFsync);
  wedged_ = false;

  ++next_ordinal_;
  ++counters_.snapshots_written;
  counters_.snapshot_bytes_written += bytes.size();

  // Retention: newest `keep` survive; stale temp files go with them.
  const auto files = list_snapshots(config_.directory);
  if (files.size() > config_.keep) {
    for (std::size_t i = 0; i + config_.keep < files.size(); ++i) {
      std::error_code ec;
      if (fs::remove(files[i].second, ec)) ++counters_.snapshots_pruned;
      fs::remove(files[i].second.string() + ".tmp", ec);
    }
  }
  return final_path.string();
}

// ---------------------------------------------------------------------------
// Loader

SnapshotLoadReport load_newest_snapshot(const std::string& directory) {
  SnapshotLoadReport report;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return report;

  auto files = list_snapshots(directory);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::ifstream in(it->second, std::ios::binary);
    if (!in) {
      report.rejected.push_back(it->second.filename().string() +
                                ": unreadable");
      ++report.counters.snapshots_rejected;
      continue;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    try {
      report.data = decode_snapshot(bytes.data(), bytes.size());
      report.loaded_file = it->second.string();
      ++report.counters.snapshots_loaded;
      return report;
    } catch (const DurabilityError& e) {
      report.rejected.push_back(it->second.filename().string() + ": " +
                                e.what());
      ++report.counters.snapshots_rejected;
    }
  }
  return report;
}

}  // namespace tagbreathe::core
