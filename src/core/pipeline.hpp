// Realtime streaming pipeline (Sec. V: "executed in a pipelined manner
// ... visualised in realtime").
//
// Wraps BreathMonitor in a sliding window: reads are pushed as the reader
// reports them; every update period the window is re-analysed and events
// are emitted per user — rate updates (Eq. 5 over the last M crossings),
// apnea alerts when a previously-breathing user's signal stops crossing
// zero, and signal-lost warnings when a user's tags stop being read
// (blocked line of sight, out of range).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "common/slab_arena.hpp"
#include "core/analysis_pool.hpp"
#include "core/demux.hpp"
#include "core/monitor.hpp"

namespace tagbreathe::core {

struct PipelineConfig {
  MonitorConfig monitor{};
  /// Analysis window length.
  double window_s = 30.0;
  /// Re-analysis cadence.
  double update_period_s = 1.0;
  /// Minimum window fill before estimates are emitted.
  double warmup_s = 10.0;
  /// No zero crossing for this long while reads keep arriving => apnea.
  double apnea_silence_s = 10.0;
  /// No reads at all for this long => signal lost.
  double signal_loss_s = 5.0;
  /// Admission control: at most this many users are tracked at once;
  /// adding one more evicts the least-recently-read user (state, latest
  /// analysis and buffered reads). Caps memory against adversarial or
  /// corrupted EPC streams that mint new user IDs. 0 = unlimited.
  std::size_t max_users = 0;
  /// Per-(user, tag, antenna) cap on buffered reads, forwarded to the
  /// demux (StreamDemux::set_max_reads_per_stream). 0 = unlimited.
  std::size_t max_reads_per_stream = 0;
  /// Worker threads for the per-user analysis fan-out each update tick.
  /// 0 = serial in the caller's thread (the legacy engine, default).
  /// N > 0 spawns a fixed AnalysisPool of N threads; results are
  /// gathered and emitted in user-id order, so the event stream is
  /// byte-identical to the serial engine's.
  std::size_t analysis_threads = 0;
  /// Dirty-window tracking: skip re-analysis of users whose streams
  /// received no new reads since their last analysis; they coast on the
  /// cached UserAnalysis (rate/health frozen) until data resumes or the
  /// signal-loss detector fires. Purely data-dependent, so determinism
  /// across thread counts is unaffected. Default off: the legacy engine
  /// re-analyses every user every tick.
  bool skip_clean_users = false;
  /// Users per batched BreathMonitor::analyze_users call in the update
  /// tick fan-out. Every user in a chunk runs its transforms through one
  /// extract_many sweep (shared FFT plan, one plan-cache hit per size)
  /// on one warm per-slot scratch. Chunks — not individual users — are
  /// the work items handed to the analysis pool. Results are
  /// bit-identical for any batch size (batched and single analysis share
  /// every arithmetic path), so the event stream does not depend on this
  /// knob. 0 or 1 = one user per call (the legacy fan-out shape).
  std::size_t analysis_batch = 16;

  /// Throws std::invalid_argument on nonsensical values (non-positive
  /// window or update period, negative warm-up, warm-up beyond the
  /// window, negative alarm thresholds). RealtimePipeline validates on
  /// construction so misconfiguration fails loudly instead of silently
  /// emitting garbage.
  void validate() const;
};

enum class PipelineEventKind : std::uint8_t {
  RateUpdate,
  ApneaAlert,
  SignalLost,
  SignalRecovered,
};

const char* pipeline_event_name(PipelineEventKind kind) noexcept;

struct PipelineEvent {
  PipelineEventKind kind = PipelineEventKind::RateUpdate;
  std::uint64_t user_id = 0;
  double time_s = 0.0;
  /// Rate for RateUpdate events [bpm].
  double rate_bpm = 0.0;
  /// Whether the estimator flagged the rate reliable.
  bool reliable = false;
  /// Signal condition at emission time: a RateUpdate carrying Stale is
  /// coasting on a gappy window and should be rendered accordingly.
  SignalHealth health = SignalHealth::Ok;
};

/// Serializable image of a pipeline (core/snapshot): the stream clock,
/// the per-user event state machine, dirty-window bookkeeping and the
/// buffered demux window. The latest per-user analyses are *not* part
/// of the state — they are derived data, recomputed at the first update
/// tick after a restore.
struct PipelineState {
  struct User {
    std::uint64_t user_id = 0;
    double last_read_s = -1.0;
    double last_crossing_s = -1.0;
    bool in_apnea = false;
    bool lost = false;
    bool ever_reliable = false;
    SignalHealth health = SignalHealth::Lost;
  };
  double now_s = 0.0;
  double start_s = 0.0;
  double next_update_s = 0.0;
  bool started = false;
  std::uint64_t users_evicted = 0;
  std::vector<User> users;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> last_seen_reads;
  DemuxState demux;
};

class RealtimePipeline {
 public:
  using EventCallback = std::function<void(const PipelineEvent&)>;

  explicit RealtimePipeline(PipelineConfig config = {},
                            EventCallback callback = nullptr);

  /// Feeds one low-level read. Reads must arrive in time order; the
  /// pipeline re-analyses and fires events whenever the stream clock
  /// crosses the next update boundary.
  void push(const TagRead& read);

  /// Advances the stream clock without data (lets loss detection fire
  /// when the reader goes silent).
  void advance_to(double time_s);

  /// Pins the update grid to `t0` before any read arrives (no-op once
  /// started). The fleet coordinator starts every shard pipeline on ONE
  /// common grid so update boundaries — and therefore the merged event
  /// log — do not depend on which shard happened to hear the first
  /// read. Without this, the grid anchors to each shard's first push.
  void start_at(double t0);

  /// Most recent analysis of one user; null before warm-up or for
  /// unknown users. The pointer stays valid until the user's next
  /// analysis, eviction, or an import (slab slots never move).
  const UserAnalysis* latest_analysis(std::uint64_t user_id) const noexcept {
    const common::SlabHandle* handle = latest_.find(user_id);
    return handle == nullptr ? nullptr : latest_arena_.get(*handle);
  }
  /// Users with a cached analysis (0 before warm-up).
  std::size_t latest_size() const noexcept { return latest_.size(); }
  /// Visits (user_id, analysis) ascending by user id — the explicit
  /// ordering contract (ISSUE 10) that replaces iterating the std::map
  /// `latest()` used to expose. Dashboards and renderers that show all
  /// users go through this so their output order cannot depend on the
  /// registry's hash layout.
  template <typename F>
  void for_each_latest_ordered(F&& fn) const {
    latest_.for_each_ordered(
        [&](const std::uint64_t& user, const common::SlabHandle& handle) {
          fn(user, latest_arena_.at(handle));
        });
  }

  /// Current signal condition of a user (Lost for unknown users).
  SignalHealth health(std::uint64_t user_id) const noexcept;

  /// Drops every trace of one user: tracking state, latest analysis and
  /// buffered reads. Admission layers call this when they evict a user.
  void forget_user(std::uint64_t user_id);

  /// Users currently tracked (bounded by config.max_users when set).
  std::size_t tracked_users() const noexcept { return user_state_.size(); }

  /// Whether this user currently has tracking state (health() alone
  /// cannot distinguish "unknown" from "known but Lost").
  bool tracks(std::uint64_t user_id) const noexcept {
    return user_state_.contains(user_id);
  }

  /// Handoff hooks (fleet rebalancing): capture / merge the buffered
  /// demux window of one user. import_user also marks the user read at
  /// the newest imported timestamp so signal-loss detection restarts
  /// from the replayed tail, not from minus infinity. Returns reads
  /// imported.
  DemuxState export_user(std::uint64_t user_id) const {
    return demux_.export_user(user_id);
  }
  std::size_t import_user(const DemuxState& state);

  /// Users evicted by the max_users admission cap.
  std::size_t users_evicted() const noexcept { return users_evicted_; }

  /// Per-user re-analyses executed / skipped by dirty-window tracking.
  std::size_t analyses_run() const noexcept { return analyses_run_; }
  std::size_t analyses_skipped() const noexcept { return analyses_skipped_; }

  double now_s() const noexcept { return now_; }

  /// Durable-state hooks (crash recovery). import_state expects a
  /// freshly constructed pipeline built with the *same* PipelineConfig
  /// that produced the export; the update grid (start/next_update) is
  /// restored exactly, so post-restore ticks land on the original
  /// boundaries and the event stream continues where it left off.
  PipelineState export_state() const;
  void import_state(PipelineState state);

  /// Registers pipeline instruments (update cadence, analysis fan-out,
  /// event counts by kind, tracked-user occupancy, capacity_* gauges)
  /// on `hub` and forwards the bind to the wrapped monitor and demux.
  /// Registration may allocate; the instrumented push/update path does
  /// not.
  void bind_observability(obs::Observability& hub);

  // --- capacity accounting (ISSUE 10) --------------------------------------
  /// Resident bytes attributable to per-user state: demux streams and
  /// registry, tracking/analysis registries, and the analysis arena.
  /// O(streams); call at tick cadence, not per read.
  std::size_t footprint_bytes() const noexcept;
  /// Live / reserved occupancy of the latest-analysis arena.
  double arena_occupancy() const noexcept { return latest_arena_.occupancy(); }
  /// Free-list reuses across the pipeline's arenas (churn served
  /// without an allocation).
  std::size_t arena_reuses() const noexcept {
    return latest_arena_.reuses() + demux_.arena_reuses();
  }
  /// Longest probe chain across the pipeline's flat registries.
  std::size_t registry_max_probe() const noexcept {
    return std::max({user_state_.max_probe_length(),
                     latest_.max_probe_length(),
                     last_seen_reads_.max_probe_length(),
                     demux_.registry_max_probe()});
  }

 private:
  void update(double time_s);
  void run_update(double time_s);
  void emit(const PipelineEvent& event);

  PipelineConfig config_;
  EventCallback callback_;
  BreathMonitor monitor_;
  StreamDemux demux_;

  double now_ = 0.0;
  double start_ = 0.0;
  bool started_ = false;
  double next_update_ = 0.0;

  struct UserState {
    double last_read_s = -1.0;
    double last_crossing_s = -1.0;
    bool in_apnea = false;
    bool lost = false;
    bool ever_reliable = false;
    SignalHealth health = SignalHealth::Lost;
  };
  common::FlatUserMap<UserState> user_state_;
  /// Latest analyses live in a slab arena; the registry maps user id to
  /// a generation-tagged handle (8 B), so registry churn never moves an
  /// analysis and eviction recycles slots instead of freeing them.
  common::FlatUserMap<common::SlabHandle> latest_;
  common::SlabArena<UserAnalysis> latest_arena_;
  std::size_t users_evicted_ = 0;

  /// Parallel analysis engine (null when analysis_threads == 0) and the
  /// per-slot scratch arenas (slot 0 = the pipeline's own thread).
  std::unique_ptr<AnalysisPool> pool_;
  std::vector<AnalysisScratch> scratch_;
  /// Dirty-window tracking: demux read count at each user's last
  /// analysis (see StreamDemux::reads_seen).
  common::FlatUserMap<std::uint64_t> last_seen_reads_;
  std::size_t analyses_run_ = 0;
  std::size_t analyses_skipped_ = 0;

  // Null until bind_observability; `hub` is the is-bound sentinel. The
  // analyses/skipped/evicted counts are the size_t fields above, read
  // by collector_ at scrape time.
  struct Instruments {
    obs::Observability* hub = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* events[4] = {};  // indexed by PipelineEventKind
    obs::Gauge* tracked = nullptr;
    obs::Histogram* update_seconds = nullptr;
    obs::Histogram* fanout = nullptr;
    obs::Gauge* bytes_per_user = nullptr;
    obs::Gauge* arena_occupancy = nullptr;
    obs::Histogram* probe_length = nullptr;
    std::uint16_t trace_stage = 0;
  } obs_;
  obs::CounterCollector collector_;  // last: retires before fields go
};

}  // namespace tagbreathe::core
