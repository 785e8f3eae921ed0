// Fault-tolerant reader fleet coordinator (ISSUE 6).
//
// One TagBreathe process in a real ward fronts N readers, not one: the
// paper's deployment (Sec. VI) covers each bed from multiple antennas,
// and readers — not tags — are the component that dies in practice
// (PoE switch reboots, firmware hangs, cable kicks). ReaderFleet owns
// one supervised ingest front (bounded queue + validator) per reader
// and M pipeline shards, and keeps every admitted user monitored
// through reader loss:
//
//   reader 0..N-1                    shard 0..M-1
//   ─────────────                    ────────────
//   IngestQueue ──▶ ReadValidator ─┐
//   IngestQueue ──▶ ReadValidator ─┼─▶ route by hash(user) ──▶ RealtimePipeline
//   IngestQueue ──▶ ReadValidator ─┘      │                    RealtimePipeline
//                                          └─ journal per shard (optional)
//
// - Health: a per-reader Up → Degraded → Dead machine driven by missed
//   traffic windows (pump cadence) and external link probes
//   (probe_reader) — the fleet analogue of the session supervisor's
//   Streaming/Degraded/watchdog ladder.
// - Rebalance: a dead reader's covered users are reassigned to the
//   least-loaded live reader in bounded per-pump batches; users whose
//   shard state was lost on the way are restored from the parked-state
//   lot or replayed from the shard journal tail, so no admitted user is
//   silently dropped.
// - Handoff: every (user, tag, antenna) stream has one source reader at
//   a time. A read from a different reader inside the suppression
//   window is a duplicate (both antennas heard the tag) and is dropped;
//   beyond the window it is a handoff and the stream migrates.
// - Degradation: above a configured census the fleet enters alarm-only
//   mode — routine rate updates are suppressed, alarms always pass.
//
// Determinism contract: stream time only; readers drained in index
// order; admitted reads merge through one stable time sort per pump;
// shard results merge in (time, user) order. For a fixed seed the
// merged event stream is byte-identical across runs, shard counts and
// shard thread counts — provided every shard runs the same update grid
// (the fleet pins one via RealtimePipeline::start_at) and per-shard
// admission caps are off (a cap's eviction choice depends on which
// users share the shard). See DESIGN.md §5g.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "core/ingest.hpp"
#include "core/journal.hpp"
#include "core/pipeline.hpp"

namespace tagbreathe::fleet {

enum class ReaderHealth : std::uint8_t {
  Up = 0,
  Degraded = 1,
  Dead = 2,
};
inline constexpr std::size_t kReaderHealthCount = 3;

const char* reader_health_name(ReaderHealth health) noexcept;

struct FleetConfig {
  std::size_t n_readers = 4;
  std::size_t n_shards = 2;
  /// Per-reader ingest template (queue + validator). monitored_users is
  /// shared by every reader; max_users caps *per-reader* admission.
  core::IngestConfig ingest{};
  /// Per-shard pipeline template. max_users caps *per-shard* tracking —
  /// leave 0 in determinism-sensitive deployments (see header note).
  core::PipelineConfig pipeline{};
  /// Pumps with no traffic (while covering users or link-down) before a
  /// reader is Degraded / declared Dead.
  std::size_t degraded_after_windows = 4;
  std::size_t dead_after_windows = 12;
  /// A queued rebalance older than this counts as a deadline miss
  /// (reported, never dropped — the user still gets reassigned).
  double rebalance_deadline_s = 5.0;
  /// Users reassigned per pump (bounds per-pump latency under mass
  /// reader loss; the backlog drains across pumps).
  std::size_t rebalance_batch = 256;
  /// A read for a stream arriving from a *different* reader within this
  /// window of the stream's last admitted read is an overlap duplicate
  /// (both antennas heard one inventory round) and is suppressed;
  /// beyond it, the stream hands off to the new reader.
  double handoff_suppress_s = 0.05;
  /// Graceful degradation: with more than this many users tracked
  /// fleet-wide, routine RateUpdate events are suppressed (alarms,
  /// loss and recovery always pass). 0 = never.
  std::size_t alarm_only_above_users = 0;
  /// Bounded lot of exported demux states for users evicted mid-flight;
  /// restoring from the lot beats a journal replay. 0 disables parking.
  std::size_t parked_users_cap = 1024;
  /// Non-empty => each shard journals its admitted reads under
  /// <durability_directory>/shard-NNN and rebalance may replay a lost
  /// user's tail from it. Empty = no durability.
  std::string durability_directory;
  /// Journal template (directory is overridden per shard).
  core::JournalConfig journal{};
  /// Worker threads for shard execution each pump. 0 = serial. Shards
  /// are striped across threads; merge order is unaffected.
  std::size_t shard_threads = 0;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Fleet-level robustness counters. Conservation laws the soak gates
/// on: per reader `enqueued == drained + shed + coalesced` (queue),
/// fleet-wide `sum(drained) == admitted + quarantined` and
/// `admitted == routed + handoff_suppressed`.
struct FleetCounters {
  std::size_t admitted = 0;            // validator-admitted reads
  std::size_t quarantined = 0;         // validator-refused reads
  std::size_t routed = 0;              // reads delivered to a shard
  std::size_t handoffs = 0;            // stream source-reader switches
  std::size_t handoff_suppressed = 0;  // overlap duplicates dropped
  std::size_t readers_died = 0;
  std::size_t readers_revived = 0;
  std::size_t rebalances = 0;          // pumps that moved >= 1 user
  std::size_t users_rebalanced = 0;
  std::size_t rebalance_deadline_misses = 0;
  std::size_t users_parked = 0;        // demux states parked on eviction
  std::size_t users_restored = 0;      // parked states re-imported
  std::size_t journal_tail_replays = 0;
  std::size_t journal_reads_replayed = 0;
  std::size_t rate_updates_suppressed = 0;  // alarm-only mode
  std::size_t events = 0;              // merged events emitted
};

/// One merged pipeline event, tagged with the shard that produced it.
struct FleetEvent {
  std::size_t shard = 0;
  core::PipelineEvent event;
};

class ReaderFleet {
 public:
  using EventCallback = std::function<void(const FleetEvent&)>;

  explicit ReaderFleet(FleetConfig config, EventCallback callback = nullptr);
  ~ReaderFleet();

  ReaderFleet(const ReaderFleet&) = delete;
  ReaderFleet& operator=(const ReaderFleet&) = delete;

  /// Producer side: non-blocking enqueue onto one reader's queue (any
  /// thread). Reads for out-of-range readers are refused as Closed.
  core::EnqueueResult offer(std::size_t reader, const core::TagRead& read,
                            double now_s);
  core::EnqueueResult offer(std::size_t reader, const core::TagRead& read) {
    return offer(reader, read, read.time_s);
  }

  /// External link-health input (the session supervisor's view): link
  /// down accelerates the missed-window ladder even while the reader
  /// covers no users; link up revives a Dead reader immediately.
  void probe_reader(std::size_t reader, bool link_up, double now_s);

  /// One coordinator cycle: drain + validate every reader, dedup /
  /// handoff, route to shards, process the rebalance backlog, execute
  /// shards (serial or striped across shard_threads), merge and emit
  /// events in (time, user) order. Call on a fixed cadence — the
  /// missed-traffic health ladder counts pump windows.
  void pump(double now_s);

  // --- introspection -------------------------------------------------------
  ReaderHealth reader_health(std::size_t reader) const;
  /// Reader currently sourcing this user's streams (nullopt = never
  /// admitted, or dropped).
  std::optional<std::size_t> covering_reader(std::uint64_t user_id) const;
  std::size_t shard_of(std::uint64_t user_id) const noexcept;
  /// Users queued for reassignment off dead readers.
  std::size_t pending_rebalances() const noexcept;
  /// Users tracked across all shard pipelines.
  std::size_t tracked_users() const;
  std::size_t users_on_reader(std::size_t reader) const;
  const FleetCounters& counters() const noexcept { return counters_; }
  core::IngestQueueCounters reader_queue_counters(std::size_t reader) const;
  const core::ValidationCounters& reader_validation(std::size_t reader) const;
  const core::RealtimePipeline& shard_pipeline(std::size_t shard) const;

  /// Registers fleet instruments on `hub`: per-reader series labelled
  /// reader="rNNN" (health, users, drained reads), per-shard series
  /// labelled shard="sNN" (tracked users, routed reads), and unlabelled
  /// fleet totals. Counters are read at scrape time (on the pump
  /// thread); gauges are sampled at pump cadence.
  void bind_observability(obs::Observability& hub);

 private:
  struct ReaderSlot {
    std::unique_ptr<core::IngestQueue> queue;
    std::unique_ptr<core::ReadValidator> validator;
    ReaderHealth health = ReaderHealth::Up;
    bool link_up = true;
    std::size_t missed_windows = 0;
    double last_traffic_s = 0.0;
    std::size_t users_assigned = 0;
  };
  struct Shard {
    std::unique_ptr<core::RealtimePipeline> pipeline;
    std::unique_ptr<core::JournalWriter> journal;
    std::vector<FleetEvent> pending;     // events from this pump
    std::vector<core::TagRead> batch;    // reads routed this pump
    std::size_t routed_total = 0;
  };
  /// Current source reader of one (user, tag, antenna) stream.
  struct StreamSource {
    std::size_t reader = 0;
    double last_time_s = 0.0;
  };

  void on_reader_dead(std::size_t reader, double now_s);
  void revive(std::size_t reader, double now_s);
  void set_coverage(std::uint64_t user, std::size_t reader);
  void park_user(std::uint64_t user);
  void restore_user(std::uint64_t user, double now_s);
  void process_rebalances(double now_s);
  void execute_shards(double now_s);
  void merge_and_emit();
  void publish_gauges();

  FleetConfig config_;
  EventCallback callback_;
  std::vector<ReaderSlot> readers_;
  std::vector<Shard> shards_;
  /// user -> covering reader (authoritative census for rebalancing).
  /// Flat registries (ISSUE 10): one entry per user / per stream, hit
  /// on every admitted read. Every output-reaching traversal goes
  /// through sorted_keys (process_rebalances); the rest is point
  /// lookups and order-free sweeps.
  common::FlatUserMap<std::size_t> coverage_;
  /// Live stream sources for duplicate suppression / handoff.
  common::FlatMap<core::StreamKey, StreamSource, core::StreamKeyHash> sources_;
  /// Exported demux states of evicted users awaiting re-admission.
  common::FlatUserMap<core::DemuxState> parked_;
  /// user -> stream time it was queued for reassignment.
  common::FlatUserMap<double> pending_rebalance_;
  FleetCounters counters_;
  bool started_ = false;  // shard update grids pinned

  // Per-pump scratch, reused.
  struct AdmittedRead {
    core::TagRead read;
    std::size_t reader = 0;
  };
  std::vector<core::TagRead> drain_scratch_;
  std::vector<AdmittedRead> admitted_scratch_;
  std::vector<FleetEvent> merge_scratch_;

  // Null until bind_observability; `hub` is the is-bound sentinel.
  struct Instruments {
    obs::Observability* hub = nullptr;
    std::vector<obs::Gauge*> reader_health;   // fleet_reader_health{reader=}
    std::vector<obs::Gauge*> reader_users;    // fleet_reader_users{reader=}
    std::vector<obs::Gauge*> shard_users;     // fleet_shard_users{shard=}
    /// fleet_shard_update_latency_seconds{shard=}: per-pump execution
    /// latency of each shard (push batch + advance), on the hub's
    /// injectable latency clock — the flat-per-shard-latency evidence
    /// the ROADMAP's scale-out target asks for.
    std::vector<obs::Histogram*> shard_update_seconds;
    obs::Gauge* pending_rebalance = nullptr;
  } obs_;
  obs::CounterCollector collector_;  // last: retires before fields go
};

}  // namespace tagbreathe::fleet
