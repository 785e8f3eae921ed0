// BreathMonitor: the TagBreathe analysis facade (Fig. 10 workflow).
//
// Data collection -> demux by user/tag/antenna -> phase preprocessing
// (Eqs. 3-4) -> low-level fusion of the user's tag array (Eqs. 6-7) ->
// breath-signal extraction (FFT low-pass) -> zero-crossing rate estimate
// (Eq. 5). Antenna selection picks the best port per user (Sec. IV-D.3).
//
// This is the batch engine: give it a window of low-level reads, get a
// per-user analysis with every intermediate artefact (the figure benches
// print them). RealtimePipeline (pipeline.hpp) wraps it for streaming.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/antenna_selector.hpp"
#include "core/breath_extractor.hpp"
#include "core/demux.hpp"
#include "core/fusion.hpp"
#include "core/phase_preprocess.hpp"
#include "core/rate_estimator.hpp"
#include "core/types.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::obs {
class Observability;
class Histogram;
}  // namespace tagbreathe::obs

namespace tagbreathe::core {

struct MonitorConfig {
  PreprocessConfig preprocess{};
  FusionConfig fusion{};
  ExtractorConfig extractor{};
  RateEstimatorConfig rate{};
  AntennaSelectorConfig antenna{};
  /// Fuse all of the user's tag streams (the paper's design). false =
  /// use only the busiest single stream (ablation: "one tag per user").
  bool fuse_tags = true;
  /// Extract from the best-quality antenna only (the paper's design).
  /// false = fuse streams across all antennas (ablation).
  bool select_antenna = true;
  /// Signal-health thresholds: a read-silent tail of the window longer
  /// than stale_after_s marks the user Stale, longer than lost_after_s
  /// marks them Lost. Internal gaps above stale_after_s also count
  /// against coverage.
  double stale_after_s = 1.5;
  double lost_after_s = 5.0;
  /// Window coverage (gap-free fraction) below this is Stale even with
  /// a fresh tail: too much of the window is interpolation.
  double min_coverage = 0.6;
  /// A single read-free gap longer than this marks the window Stale even
  /// when coverage and tail freshness pass. The fused track holds flat
  /// through a gap, so one multi-second hole biases the zero-crossing
  /// periods of the whole window while costing little coverage (a 4 s
  /// hole in a 30 s window keeps coverage at 0.87). <= 0 disables.
  double max_gap_for_ok_s = 3.0;
};

/// Everything TagBreathe derives for one user from one window.
struct UserAnalysis {
  std::uint64_t user_id = 0;
  /// Antenna the extraction used (0 = none/all).
  std::uint8_t antenna_used = 0;
  std::size_t reads_used = 0;
  std::size_t streams_used = 0;
  double window_s = 0.0;

  /// Signal condition over this window (all of the user's streams, not
  /// just the working set): is the estimate backed by fresh data?
  SignalHealth health = SignalHealth::Lost;
  /// Newest read of any of the user's tags in the window (-1 = none).
  double last_read_s = -1.0;
  /// Window tail with no reads at all.
  double tail_gap_s = 0.0;
  /// Largest read-free gap inside the window.
  double max_gap_s = 0.0;
  /// Fraction of the window not swallowed by gaps above stale_after_s.
  double coverage = 0.0;

  /// Fused displacement track ΔD(t) (Eq. 7) on the Δt grid.
  std::vector<signal::TimedSample> fused_track;
  double track_rate_hz = 0.0;

  /// Extracted breath signal (after the low-pass filter).
  BreathSignal breath;

  /// Rate estimate (Eq. 5) with crossings and instantaneous series.
  RateEstimate rate;

  /// Quality scores of every antenna that saw this user.
  std::vector<AntennaQuality> antenna_scores;
};

/// Per-worker scratch for the analysis hot path. The parallel engine
/// keeps one per pool slot so the FFT filter runs through a warm,
/// allocation-free workspace; passing nullptr makes analyze_users
/// allocate a throwaway workspace.
///
/// Cache-line aligned: slots live side by side in the pool's scratch
/// array and are written by different worker threads, so the 64-byte
/// alignment keeps two slots from sharing a line (false sharing).
struct alignas(64) AnalysisScratch {
  signal::FftWorkspace fft;
  /// Staging for the batched extract_many sweep.
  ExtractScratch extract;
  /// Pooled preprocessor, reconfigure()d per stream — reuses its
  /// channel-table and staging capacity across every stream analysed
  /// from this slot.
  PhasePreprocessor pre;
  /// Per-stream delta staging; the first working.size() entries are
  /// live for the user currently being prepared.
  std::vector<std::vector<signal::TimedSample>> deltas;
  /// Extraction jobs staged across one analyze_users batch.
  std::vector<ExtractJob> extract_jobs;
  /// Signal-health staging: the in-window read times of the user being
  /// prepared, across all of its streams, ascending. Gathered as one
  /// time-ordered run per stream (`run_ends` marks where each ends) and
  /// merged through `merge_spare`, which trades places with
  /// `read_times` on every merge pass. All three keep their high-water
  /// capacity, so a warm scan allocates nothing.
  std::vector<double> read_times;
  std::vector<double> merge_spare;
  std::vector<std::size_t> run_ends;
  /// One analysis batch of the realtime pipeline: the users it analyses
  /// and their full analyses, live only until the batch is reduced.
  std::vector<std::uint64_t> ids;
  std::vector<UserAnalysis> analyses;
};

class BreathMonitor {
 public:
  explicit BreathMonitor(MonitorConfig config = {});

  /// Analyses a window of reads for every monitored user present.
  std::vector<UserAnalysis> analyze(std::span<const TagRead> reads) const;

  /// Analyses one user from an already-demuxed window spanning [t0, t1]:
  /// a one-user analyze_users batch. `scratch` (optional) carries the
  /// per-worker FFT workspace reused across calls.
  UserAnalysis analyze_user(const StreamDemux& demux, std::uint64_t user_id,
                            double t0, double t1,
                            AnalysisScratch* scratch = nullptr) const;

  /// Batched analysis: runs the pre-extraction stages (health, antenna
  /// selection, preprocessing, fusion) per user, then extracts every
  /// ready fused track in ONE extract_many sweep, so the batch's
  /// transforms march through the shared FFT plan back to back with one
  /// plan-cache hit per size. `out.size()` must equal `user_ids.size()`;
  /// each slot is overwritten. Each user's result is bit-identical
  /// whatever batch it is analysed in. Thread-safe for distinct
  /// scratches over a demux nobody is mutating.
  void analyze_users(const StreamDemux& demux,
                     std::span<const std::uint64_t> user_ids, double t0,
                     double t1, AnalysisScratch* scratch,
                     std::span<UserAnalysis> out) const;

  const MonitorConfig& config() const noexcept { return config_; }

  /// Registers per-stage latency histograms
  /// (analysis_stage_seconds{stage=preprocess|fuse|extract|estimate})
  /// and a "monitor.analyze" trace stage on `hub`. Registration may
  /// allocate; the instrumented analysis path does not. Durations
  /// come from the hub's latency clock; trace events are stamped with
  /// the window-end stream time.
  void bind_observability(obs::Observability& hub);

 private:
  /// Front half of analyze_users for one user: resets `out`, emits the
  /// trace Enter, runs health scan, antenna selection, preprocessing and
  /// fusion. Returns true when the fused track is long enough for
  /// extraction; `stage_mark` carries the hub-time at the fuse boundary
  /// so the caller can continue the stage clock chain. Does NOT emit the
  /// trace Exit — the caller does, on every path.
  bool analyze_prepare(const StreamDemux& demux, std::uint64_t user_id,
                       double t0, double t1, AnalysisScratch& scratch,
                       UserAnalysis& out, double& stage_mark) const;

  MonitorConfig config_;

  // Null until bind_observability; `hub` is the is-bound sentinel.
  // Updated from concurrent analyze_users calls — instruments are atomic,
  // the trace ring takes its own short lock.
  struct Instruments {
    obs::Observability* hub = nullptr;
    obs::Histogram* preprocess = nullptr;
    obs::Histogram* fuse = nullptr;
    obs::Histogram* extract = nullptr;
    obs::Histogram* estimate = nullptr;
    std::uint16_t trace_stage = 0;
  } obs_;
};

}  // namespace tagbreathe::core
