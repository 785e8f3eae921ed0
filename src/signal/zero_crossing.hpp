// Zero-crossing detection.
//
// The paper estimates the instantaneous breathing rate from the time
// stamps of zero crossings of the extracted breath signal (Eq. 5, Fig. 8).
// Each full breath contributes two crossings; M buffered crossings span
// (M-1)/2 breaths.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signal/interpolate.hpp"

namespace tagbreathe::signal {

enum class CrossingDirection { Rising, Falling };

struct ZeroCrossing {
  double time_s = 0.0;  // linearly interpolated crossing instant
  CrossingDirection direction = CrossingDirection::Rising;
};

/// Detects zero crossings of a uniformly/irregularly sampled series with
/// hysteresis: after a crossing is emitted, the signal must exceed
/// ±`hysteresis` before the next opposite crossing is accepted. This
/// rejects noise chatter around zero that would otherwise inflate the
/// estimated rate. `hysteresis` = 0 degenerates to plain sign-change
/// detection.
std::vector<ZeroCrossing> detect_zero_crossings(
    std::span<const TimedSample> series, double hysteresis = 0.0);

}  // namespace tagbreathe::signal
