// Resampling of irregularly sampled series onto uniform grids.
//
// RFID reads arrive asynchronously (MAC slot outcomes, hopping gaps,
// blockage dropouts), but FFT analysis needs uniform sampling. The fusion
// stage (Eq. 6) bins displacements onto a Δt grid; this module provides
// the interpolation primitives under that, plus gap-aware resampling used
// by single-stream analysis.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tagbreathe::signal {

/// A timestamped scalar sample.
struct TimedSample {
  double time_s = 0.0;
  double value = 0.0;
};

/// Resamples a sorted irregular series onto a uniform grid of period
/// 1/rate_hz covering [t0, t1]. Gaps longer than `max_gap_s` are bridged
/// by holding the last value before the gap (linear interpolation across
/// a long dropout would fabricate a spurious ramp). max_gap_s <= 0
/// disables gap handling.
std::vector<TimedSample> resample_uniform(std::span<const TimedSample> samples,
                                          double rate_hz, double t0, double t1,
                                          double max_gap_s = 0.0);

/// Convenience: resamples over the series' own time span.
std::vector<TimedSample> resample_uniform(std::span<const TimedSample> samples,
                                          double rate_hz,
                                          double max_gap_s = 0.0);

}  // namespace tagbreathe::signal
