// Stream demultiplexing (Sec. IV-C, Fig. 9/10).
//
// Every read carries an EPC whose leading 64 bits are the user ID and
// trailing 32 bits the short tag ID (monitoring tags are rewritten that
// way before deployment). Phase differencing is only valid within one
// (user, tag, antenna) stream — different tags and different antenna
// geometries have unrelated phase offsets — so the demux keys on all
// three, while fusion later regroups the streams per user.
//
// Capacity layout (ISSUE 10): the registry is a per-user flat map whose
// entries hold a small sorted vector of slab handles — one per (tag,
// antenna) stream — into a SlabArena of stream buffers. Compared to the
// node-based std::map<StreamKey, vector> it replaces:
// - looking up one user's streams is O(streams of that user), not a
//   scan of every stream in the shard;
// - stream buffers live in slabs, so admission/eviction churn at the
//   census cap reuses slots instead of hitting the heap;
// - users() is served from a cached sorted roster (rebuilt only when
//   the user set changed), so the per-tick ordering pass is free in
//   steady state.
// Ordering contract: every exported or emitted sequence (export_state,
// export_user, users, streams_for_user) visits users ascending and
// each user's streams in (tag, antenna) order — exactly the global
// StreamKey order of the std::map this replaced, byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.hpp"
#include "common/slab_arena.hpp"
#include "core/tag_registry.hpp"
#include "core/types.hpp"
#include "obs/registry.hpp"

namespace tagbreathe::obs {
class Observability;
}  // namespace tagbreathe::obs

namespace tagbreathe::core {

/// Identity of one differencable phase stream.
struct StreamKey {
  std::uint64_t user_id = 0;
  std::uint32_t tag_id = 0;
  std::uint8_t antenna_id = 0;

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

struct StreamKeyHash {
  std::uint64_t operator()(const StreamKey& key) const noexcept {
    return common::splitmix64_mix(
        common::splitmix64_mix(key.user_id) ^
        (static_cast<std::uint64_t>(key.tag_id) << 8) ^ key.antenna_id);
  }
};

/// Serializable image of a demux: buffered streams plus the monotonic
/// counters. The snapshot layer (core/snapshot) encodes this; the demux
/// itself stays byte-format-agnostic.
struct DemuxState {
  struct Stream {
    StreamKey key;
    std::vector<TagRead> reads;
  };
  std::vector<Stream> streams;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_seen;
  std::uint64_t accepted = 0;
  std::uint64_t ignored = 0;
  std::uint64_t shed = 0;
};

class StreamDemux {
 public:
  /// `monitored_users` restricts grouping to known user IDs; reads from
  /// other EPCs (item-labelling tags) are counted but not stored. An
  /// empty list accepts every user ID seen.
  explicit StreamDemux(std::vector<std::uint64_t> monitored_users = {});

  /// Identity resolution through an EPC mapping table (Sec. IV-C's
  /// fallback when tag-ID overwriting is unsupported): reads whose EPC
  /// is registered are grouped under the mapped (user, tag); unknown
  /// EPCs are ignored. The registry must outlive the demux. Passing
  /// nullptr reverts to the Fig. 9 bit-layout decoding.
  void set_registry(const TagRegistry* registry) noexcept {
    registry_ = registry;
  }

  void add(const TagRead& read);
  void add(std::span<const TagRead> reads);

  /// All streams of one user, keyed by (tag, antenna), in key order.
  /// Pointers stay valid until the user's streams are dropped (slab
  /// slots never move).
  std::vector<const std::vector<TagRead>*> streams_for_user(
      std::uint64_t user_id) const;

  /// Streams of one user restricted to one antenna.
  std::vector<const std::vector<TagRead>*> streams_for_user_antenna(
      std::uint64_t user_id, std::uint8_t antenna_id) const;

  /// User IDs with at least one stored read, ascending. The roster is
  /// cached and rebuilt only when the user set changed since the last
  /// call; the reference stays valid until the next add/drop/clear.
  const std::vector<std::uint64_t>& users() const;

  /// Monotonic count of reads accepted for one user since construction
  /// (window eviction does not rewind it). The pipeline's dirty-window
  /// tracking compares this against the count recorded at the user's
  /// last analysis: unchanged => no new data => the re-analysis can be
  /// skipped. 0 for unknown users.
  std::uint64_t reads_seen(std::uint64_t user_id) const noexcept;

  std::size_t total_reads() const noexcept { return accepted_ + ignored_; }
  std::size_t accepted_reads() const noexcept { return accepted_; }
  std::size_t ignored_reads() const noexcept { return ignored_; }

  /// Hard cap on buffered reads per (user, tag, antenna) stream; the
  /// oldest read of the stream is shed when a new one would exceed it.
  /// Guards memory against a reader stuck replaying one tag faster than
  /// the window eviction cadence. 0 = unlimited.
  void set_max_reads_per_stream(std::size_t cap) noexcept {
    max_reads_per_stream_ = cap;
  }
  /// Reads shed by the per-stream cap.
  std::size_t shed_reads() const noexcept { return shed_; }

  /// Durable-state hooks (crash recovery, core/snapshot). export_state
  /// captures buffered streams and counters; import_state replaces them
  /// wholesale (roster/registry/caps are configuration, not state, and
  /// are untouched). Streams are emitted in key order, so the image is
  /// deterministic for a given demux.
  DemuxState export_state() const;
  void import_state(DemuxState state);

  /// Handoff hooks (fleet cross-reader migration, ISSUE 6): capture or
  /// merge the streams of ONE user without touching anybody else.
  /// export_user emits the user's streams in key order (deterministic);
  /// import_user merges them into the live demux — reads are
  /// re-sorted per stream so a tail replayed on top of fresh reads
  /// stays time-ordered — and bumps reads_seen so dirty-window
  /// tracking sees the user as changed. Returns reads imported.
  /// Counters (accepted/ignored/shed) are NOT transferred: the import
  /// is a state migration, not new traffic.
  DemuxState export_user(std::uint64_t user_id) const;
  std::size_t import_user(const DemuxState& state);

  void clear() noexcept;

  /// Drops all reads older than `cutoff_s` (sliding-window pipelines call
  /// this to bound memory over long sessions).
  void evict_before(double cutoff_s);

  /// Drops every stream of one user (admission-control eviction); the
  /// slab slots go back on the free list for the next admitted user.
  /// Returns the number of reads released.
  std::size_t drop_user(std::uint64_t user_id);

  /// Exports the accepted/ignored/shed counts at scrape time and
  /// registers the live-streams gauge. Registration may allocate; add()
  /// stays allocation-free afterwards.
  void bind_observability(obs::Observability& hub);

  // --- capacity accounting (ISSUE 10) --------------------------------------
  /// Live / reserved occupancy of the stream-buffer arena.
  double arena_occupancy() const noexcept { return arena_.occupancy(); }
  /// Free-list reuses served by the arena (eviction churn that cost no
  /// allocation).
  std::size_t arena_reuses() const noexcept { return arena_.reuses(); }
  /// Longest probe chain in the user registry (capacity_probe_length).
  std::size_t registry_max_probe() const noexcept {
    return users_.max_probe_length();
  }
  /// Resident bytes attributable to buffered state: slab storage, the
  /// registry table, and every stream buffer's capacity. O(streams);
  /// call at tick cadence, not per read.
  std::size_t footprint_bytes() const noexcept;

 private:
  /// One slab-resident stream buffer.
  struct StreamSlot {
    StreamKey key;
    std::vector<TagRead> reads;
  };
  /// Per-user registry entry: handles sorted by (tag, antenna).
  /// `non_empty` counts streams currently holding reads — users() lists
  /// a user only while it is > 0, matching the "at least one stored
  /// read" contract of the registry this replaced (a user whose window
  /// fully aged out must vanish from the analysis roster, or the event
  /// log would grow ticks the old engine never ran).
  struct UserEntry {
    std::vector<common::SlabHandle> streams;
    std::uint64_t reads_seen = 0;
    std::uint32_t non_empty = 0;
  };

  bool is_monitored(std::uint64_t user_id) const noexcept;
  std::vector<TagRead>& stream_for(std::uint64_t user, std::uint32_t tag,
                                   std::uint8_t antenna);
  /// Recomputes `non_empty` from the streams themselves (bulk paths —
  /// import, window eviction — that bypass add()'s incremental count).
  void recount_user(UserEntry& entry);
  const StreamSlot* slot(common::SlabHandle handle) const noexcept {
    return arena_.get(handle);
  }

  std::vector<std::uint64_t> monitored_users_;
  const TagRegistry* registry_ = nullptr;
  common::FlatUserMap<UserEntry> users_;
  common::SlabArena<StreamSlot> arena_;
  mutable std::vector<std::uint64_t> user_order_;  // cached ascending roster
  mutable bool user_order_dirty_ = false;
  std::size_t accepted_ = 0;
  std::size_t ignored_ = 0;
  std::size_t shed_ = 0;
  std::size_t max_reads_per_stream_ = 0;

  obs::Gauge* streams_gauge_ = nullptr;  // null until bind_observability
  obs::CounterCollector collector_;      // last: retires before fields go
};

}  // namespace tagbreathe::core
