#include "signal/zero_crossing.hpp"

#include <cmath>

namespace tagbreathe::signal {

std::vector<ZeroCrossing> detect_zero_crossings(
    std::span<const TimedSample> series, double hysteresis) {
  std::vector<ZeroCrossing> crossings;
  if (series.size() < 2) return crossings;

  // State machine: track the last *armed* polarity. A crossing in the
  // other direction is only emitted once the signal has previously
  // exceeded the hysteresis threshold on this side.
  int armed = 0;  // +1: above +hyst seen; -1: below -hyst seen; 0: unknown
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double v = series[i].value;
    if (armed >= 0 && v > hysteresis) armed = 1;
    if (armed <= 0 && v < -hysteresis) armed = -1;

    if (i == 0) continue;
    const double prev = series[i - 1].value;
    const bool falling = prev > 0.0 && v <= 0.0 && armed == 1;
    const bool rising = prev < 0.0 && v >= 0.0 && armed == -1;
    if (!falling && !rising) continue;

    // Linear interpolation for the crossing instant.
    const double dv = v - prev;
    double t = series[i].time_s;
    if (std::abs(dv) > 1e-300) {
      const double frac = -prev / dv;
      t = series[i - 1].time_s +
          frac * (series[i].time_s - series[i - 1].time_s);
    }
    crossings.push_back(ZeroCrossing{
        t, falling ? CrossingDirection::Falling : CrossingDirection::Rising});
    // Re-arm on the new side only after exceeding the threshold there.
    armed = 0;
  }
  return crossings;
}

}  // namespace tagbreathe::signal
