// Breathing-rate estimation (Sec. IV-B, Eq. 5).
//
// Primary method: zero crossings of the extracted breath signal. With M
// buffered crossing timestamps t_{i-M+1..i}, the instantaneous rate is
//
//     f_BR(t_i) = (M − 1) / (2 (t_i − t_{i−M+1}))            (Eq. 5)
//
// (two crossings per breath). The paper buffers M = 7 crossings = 3
// breaths for realtime display. Baseline: reading the FFT peak directly,
// which the paper rejects because a w-second window quantises the rate to
// 1/w Hz (25 s -> 2.4 bpm); kept here for the ablation benches.
#pragma once

#include <span>
#include <vector>

#include "signal/interpolate.hpp"
#include "signal/zero_crossing.hpp"

namespace tagbreathe::core {

struct RateEstimatorConfig {
  /// M of Eq. 5.
  int buffered_crossings = 7;
  /// Hysteresis for crossing detection, as a fraction of the signal's
  /// peak magnitude (rejects noise chatter around zero).
  double hysteresis_fraction = 0.15;
  /// Rates outside [min, max] bpm are reported as unreliable.
  double min_rate_bpm = 3.0;
  double max_rate_bpm = 45.0;
  /// Period-consistency gate on `reliable`: with >= 3 full periods in
  /// the window, require (max - min) <= this fraction of the median
  /// period. Genuine breathing is near-periodic — a steady metronome
  /// spreads ~0.05, natural variability ~0.3 — while noise-injected or
  /// missed crossings mix half-length and double-length periods into
  /// the same window (spread >= ~0.7), so the window still reports a
  /// rate but refuses to vouch for it. A spread measure is used rather
  /// than MAD because the degenerate 3-period windows where bogus
  /// crossings hide always put a zero in the deviation list, which
  /// makes the median deviation blind to them. <= 0 disables.
  double max_period_dispersion = 0.6;
};

/// One instantaneous rate sample (at a zero-crossing instant).
struct RatePoint {
  double time_s = 0.0;
  double rate_bpm = 0.0;
};

struct RateEstimate {
  /// Window-average breathing rate [bpm]; 0 when not enough crossings.
  double rate_bpm = 0.0;
  /// Instantaneous Eq. 5 rates at each crossing once M are buffered.
  std::vector<RatePoint> instantaneous;
  /// All detected crossings.
  std::vector<signal::ZeroCrossing> crossings;
  /// True when at least M crossings were available and the average rate
  /// lies in the configured plausible band.
  bool reliable = false;
};

/// Batch zero-crossing estimator over an extracted breath signal.
class ZeroCrossingRateEstimator {
 public:
  explicit ZeroCrossingRateEstimator(RateEstimatorConfig config = {});

  RateEstimate estimate(std::span<const signal::TimedSample> breath) const;

  const RateEstimatorConfig& config() const noexcept { return config_; }

 private:
  RateEstimatorConfig config_;
};

/// FFT-peak baseline. `raw_bin` reads the peak bin directly (the paper's
/// criticised 1/w-resolution estimator); otherwise the peak is refined by
/// parabolic interpolation.
struct FftPeakConfig {
  double min_rate_bpm = 3.0;
  double max_rate_bpm = 45.0;
  bool raw_bin = true;
};

double fft_peak_rate_bpm(std::span<const signal::TimedSample> track,
                         double sample_rate_hz,
                         const FftPeakConfig& config = {});

}  // namespace tagbreathe::core
