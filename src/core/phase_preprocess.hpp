// Phase preprocessing: raw phase reports -> displacement deltas
// (Sec. IV-A.3, Eqs. 3-4).
//
// Raw phase is discontinuous at every channel hop (different λ and offset
// c per channel, Fig. 4), so displacement is computed from consecutive
// readings *in the same channel*:
//
//     Δd_{i+1} = λ/(4π) · wrap(θ_{i+1} − θ_i)          (Eq. 3)
//
// The wrap to (−π, π] is safe because body motion between consecutive
// readings is far below λ/4 at the reader's sampling rates. Integrating
// the deltas (Eq. 4) yields a hop-free displacement track (Fig. 6).
//
// Robustness guards beyond the paper's formula:
//   - a delta spanning more than `max_same_channel_gap_s` is dropped
//     (after a long dropout the λ/4 assumption can fail and the noise of
//     one delta doubles);
//   - deltas implying a speed above `max_speed_mps` are rejected as
//     outliers (multipath flicker produces occasional wild phases).
//
// Layout: per-channel state is structure-of-arrays (flat time/phase
// arrays indexed by channel, epoch-stamped for O(1) reset), and the
// batch path stages candidate pairs into flat arrays so the Eq. 3
// wrap + scale runs through the dispatched SIMD kernel
// (signal/simd/kernels.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "signal/interpolate.hpp"

namespace tagbreathe::core {

struct PreprocessConfig {
  /// Longest same-channel gap still differenced. "Consecutive readings in
  /// the same frequency channel" means *within one dwell* (~0.2 s):
  /// within-dwell deltas telescope across back-to-back dwells into the
  /// physical displacement. Linking across channel *revisits* (~2 s apart
  /// on the paper plan) must be avoided — it would sum ten stale
  /// sample-and-hold copies of the displacement, acting as a ~2 s comb
  /// filter that distorts faster breathing.
  double max_same_channel_gap_s = 0.3;
  /// Slow-stream fallback: when contention starves a tag to ~1 read per
  /// dwell (Figs. 13-14), within-dwell pairs vanish, so deltas across one
  /// channel *revisit* are accepted instead. A revisit-linked chain holds
  /// each channel's contribution stale for up to the revisit period
  /// (~2 s), which is acceptable at the slow default breathing rates that
  /// dominate contended deployments but would alias fast breathing —
  /// hence the rate-based switch, not a single large gap.
  double fallback_gap_s = 2.5;
  /// Streams reading at or above this rate use the strict within-dwell
  /// gap; slower streams use the fallback. ~8 Hz gives >= 1.6 reads per
  /// dwell, enough for within-dwell pairs to carry the track. The switch
  /// carries +-25% hysteresis so streams near the threshold don't
  /// flicker between modes (mixing crisp and stale chains distorts the
  /// track).
  double fast_stream_hz = 8.0;
  /// Enables the rate-adaptive gap switch.
  bool adaptive_gap = true;
  /// Reject deltas implying faster radial motion than this. Breathing
  /// wall speed is < 0.05 m/s; 0.5 m/s tolerates posture shifts while
  /// killing phase outliers.
  double max_speed_mps = 0.5;
  /// Despike gate: reject deltas with |Δd| > spike_floor_m +
  /// spike_speed_mps * dt. Chest-wall peak velocity is A·2πf — under
  /// 0.05 m/s even for deep fast breathing — so a legitimate pair can
  /// only move speed*dt plus phase-noise jitter (the floor). A phase
  /// word corrupted in transit (bit flip above the low bits) jumps the
  /// apparent displacement 0.5-8 cm in one step, which sails under the
  /// coarse max_speed_mps gate whenever dt is not tiny but cannot pass
  /// this physical budget. spike_floor_m <= 0 disables.
  double spike_floor_m = 0.003;
  double spike_speed_mps = 0.015;
};

struct PreprocessStats {
  std::size_t reads_in = 0;
  std::size_t deltas_out = 0;
  std::size_t dropped_gap = 0;
  std::size_t dropped_outlier = 0;
  std::size_t dropped_spike = 0;
  std::size_t first_in_channel = 0;
};

/// Phase-to-displacement converter for ONE (user, tag, antenna) stream.
/// Feed reads in time order; displacement deltas come out as timestamped
/// samples. Channel and rate state carry across calls, so a stream may
/// arrive in pieces. An instance may be pooled: reconfigure() swaps
/// the config and resets the state in O(1) while keeping every buffer's
/// high-water capacity, so a per-worker instance reused across streams
/// performs no steady-state allocation.
class PhasePreprocessor {
 public:
  explicit PhasePreprocessor(PreprocessConfig config = {});

  /// Batch helper: displacement deltas for a whole stream.
  std::vector<signal::TimedSample> process(std::span<const TagRead> reads);

  /// Batch path into a caller buffer (cleared first): stages candidate
  /// pairs, runs the wrap+scale through the dispatched SIMD kernel, then
  /// applies the speed/spike gates.
  void process_into(std::span<const TagRead> reads,
                    std::vector<signal::TimedSample>& out);

  const PreprocessStats& stats() const noexcept { return stats_; }
  void reset() noexcept;

  /// reset() plus a config swap (for pooled per-worker instances).
  void reconfigure(const PreprocessConfig& config) noexcept;

  /// Gap limit currently in force (diagnostic; depends on the observed
  /// stream rate when adaptive_gap is set).
  double effective_gap_s() const noexcept;

 private:
  /// Per-read gate stage of process_into(): rate tracking, channel state
  /// update, dt/gap gating. True => the read completes a candidate pair;
  /// `dt_out`/`dphase_out` carry its time and raw phase deltas.
  bool pair_gate(const TagRead& read, double& dt_out, double& dphase_out);

  PreprocessConfig config_;
  PreprocessStats stats_;

  // Per-channel state, structure-of-arrays: flat arrays indexed by
  // channel, grown lazily to the highest index seen. A channel's entry
  // is live only when its epoch stamp matches epoch_ — reset is a bump
  // of epoch_, never a sweep.
  std::vector<double> chan_time_;
  std::vector<double> chan_phase_;
  std::vector<std::uint32_t> chan_epoch_;
  std::uint32_t epoch_ = 1;

  // Batch staging (high-water capacity, reused across process_into).
  std::vector<double> stage_time_;
  std::vector<double> stage_dt_;
  std::vector<double> stage_dphase_;
  std::vector<double> stage_scale_;
  std::vector<double> stage_delta_;

  // EWMA of the inter-read interval (any channel) drives the adaptive
  // gap selection.
  double ewma_dt_s_ = 0.0;
  std::size_t dt_samples_ = 0;
  double last_read_time_s_ = 0.0;
  bool has_last_time_ = false;
  mutable bool fast_mode_ = false;
  mutable bool mode_init_ = false;
};

/// Eq. 4: integrates deltas into a displacement track anchored at 0.
/// Stays scalar by design: the running sum is a serial dependency chain
/// (each output feeds the next), so there is nothing to vectorize
/// without reassociating — which would break bitwise reproducibility.
std::vector<signal::TimedSample> integrate_displacement(
    std::span<const signal::TimedSample> deltas);

/// Gap-aware Eq. 4: a delta separated from its predecessor by more than
/// `reset_gap_s` spans a dropout — the motion it encodes is the net
/// drift across the outage, not breathing — so its value is discarded
/// and the track continues flat from the held displacement instead of
/// integrating a bogus step (which the band-pass filter would ring on
/// for seconds). reset_gap_s <= 0 disables the guard (plain Eq. 4).
std::vector<signal::TimedSample> integrate_displacement(
    std::span<const signal::TimedSample> deltas, double reset_gap_s);

}  // namespace tagbreathe::core
