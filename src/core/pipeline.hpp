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
  /// adding one more evicts the least-recently-read user (state, rate
  /// summary and buffered reads). Caps memory against adversarial or
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
  /// RateSummary of that analysis (rate/health frozen) until data
  /// resumes or the signal-loss detector fires. Purely data-dependent,
  /// so determinism across thread counts is unaffected. Default off:
  /// every user is re-analysed every tick.
  bool skip_clean_users = false;

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

/// What the event state machine reads of one analysis. The pipeline
/// keeps this per user instead of the UserAnalysis it came from.
struct RateSummary {
  SignalHealth health = SignalHealth::Lost;
  /// The estimator's reliable flag (UserAnalysis::rate.reliable).
  bool reliable = false;
  /// Window-average rate (Eq. 5 over the window) [bpm].
  double rate_bpm = 0.0;
  /// Rate a RateUpdate carries: the newest instantaneous rate, else the
  /// window average [bpm].
  double emitted_bpm = 0.0;
  /// Largest |breath signal| over the window.
  double window_peak = 0.0;
  /// recent_peaks[k]: largest |breath signal| at or after
  /// tick_k - apnea_silence_s, where tick_0 is the analysis tick and
  /// tick_k the k-th grid tick after it. One entry per tick the user can
  /// coast on before signal loss fires, so the apnea check keeps moving
  /// with the clock while the samples are gone. Empty = no summary yet.
  std::vector<double> recent_peaks;

  /// Peak for the k-th tick after the analysis. Past the stored ticks
  /// the pipeline's coasting invariant is broken: throws
  /// std::out_of_range rather than guess.
  double recent_peak(std::size_t k) const { return recent_peaks.at(k); }
};

/// Serializable image of a pipeline (core/snapshot): the stream clock,
/// the per-user event state machine, dirty-window bookkeeping and the
/// buffered demux window. The per-user rate summaries are *not* part of
/// the state — they are derived data, recomputed at the first update
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

  /// Summary of one user's most recent analysis; null before warm-up,
  /// after an import, or for unknown users. Valid until the next push,
  /// tick or eviction (the registry moves its records).
  const RateSummary* rate_summary(std::uint64_t user_id) const noexcept {
    const UserState* state = user_state_.find(user_id);
    return state == nullptr || state->summary.recent_peaks.empty()
               ? nullptr
               : &state->summary;
  }

  /// Current signal condition of a user (Lost for unknown users).
  SignalHealth health(std::uint64_t user_id) const noexcept;

  /// Drops every trace of one user: tracking state, rate summary and
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
  /// registry, the per-user records with their rate summaries, the
  /// dirty-window registry and the per-tick staging. O(users + streams);
  /// call at tick cadence, not per read.
  std::size_t footprint_bytes() const noexcept;
  /// Longest probe chain across the pipeline's flat registries.
  std::size_t registry_max_probe() const noexcept {
    return std::max({user_state_.max_probe_length(),
                     last_seen_reads_.max_probe_length(),
                     demux_.registry_max_probe()});
  }
  /// The buffered read window (its arena occupancy is the
  /// capacity_arena_occupancy gauge).
  const StreamDemux& demux() const noexcept { return demux_; }

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
    /// Grid ticks coasted since the summary's analysis tick.
    std::size_t coasted_ticks = 0;
    RateSummary summary;
  };
  common::FlatUserMap<UserState> user_state_;
  std::size_t users_evicted_ = 0;
  /// Grid ticks after an analysis on which a user can still coast (see
  /// RateSummary::recent_peaks); fixed by the config.
  std::size_t coast_ticks_ = 0;

  /// Per-tick staging, reused across ticks: one slot per demux user, and
  /// the indices of the users this tick re-analyses.
  struct TickSlot {
    bool lost_now = false;
    bool analyse = false;
    std::uint64_t reads_seen = 0;
  };
  std::vector<TickSlot> ticks_;
  std::vector<std::size_t> to_analyse_;

  /// Reduces one analysis made at tick `time_s` into `state`: its rate
  /// summary and last crossing time.
  void summarize(const UserAnalysis& analysis, double time_s,
                 UserState& state) const;

  /// Parallel analysis engine (null when analysis_threads == 0) and the
  /// per-slot scratch arenas (slot 0 = the pipeline's own thread).
  std::unique_ptr<AnalysisPool> pool_;
  std::vector<AnalysisScratch> scratch_;
  /// Dirty-window tracking: demux read count at each user's last
  /// analysis (see StreamDemux::reads_seen).
  common::FlatUserMap<std::uint64_t> last_seen_reads_;
  std::size_t analyses_run_ = 0;
  std::size_t analyses_skipped_ = 0;
  std::size_t updates_run_ = 0;
  std::size_t events_emitted_[4] = {};  // indexed by PipelineEventKind

  // Null until bind_observability; `hub` is the is-bound sentinel. The
  // update, event, analyses/skipped/evicted counts are the size_t
  // fields above, read by collector_ at scrape time.
  struct Instruments {
    obs::Observability* hub = nullptr;
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
