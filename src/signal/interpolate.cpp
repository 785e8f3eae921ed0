#include "signal/interpolate.hpp"

#include <stdexcept>

namespace tagbreathe::signal {

std::vector<TimedSample> resample_uniform(std::span<const TimedSample> samples,
                                          double rate_hz, double t0, double t1,
                                          double max_gap_s) {
  if (rate_hz <= 0.0)
    throw std::invalid_argument("resample_uniform: rate must be positive");
  if (samples.empty() || t1 < t0) return {};
  const double dt = 1.0 / rate_hz;
  const auto count = static_cast<std::size_t>((t1 - t0) / dt) + 1;
  std::vector<TimedSample> out;
  out.reserve(count);
  std::size_t cursor = 0;  // index of the last sample with time <= t
  for (std::size_t i = 0; i < count; ++i) {
    const double t = t0 + static_cast<double>(i) * dt;
    while (cursor + 1 < samples.size() && samples[cursor + 1].time_s <= t)
      ++cursor;
    double value;
    if (t <= samples.front().time_s) {
      value = samples.front().value;
    } else if (t >= samples.back().time_s) {
      value = samples.back().value;
    } else {
      const TimedSample& a = samples[cursor];
      const TimedSample& b = samples[cursor + 1];
      const double gap = b.time_s - a.time_s;
      if (max_gap_s > 0.0 && gap > max_gap_s) {
        // Hold-last across dropouts instead of fabricating a ramp.
        value = a.value;
      } else if (gap <= 0.0) {
        value = a.value;
      } else {
        const double frac = (t - a.time_s) / gap;
        value = a.value + frac * (b.value - a.value);
      }
    }
    out.push_back(TimedSample{t, value});
  }
  return out;
}

std::vector<TimedSample> resample_uniform(std::span<const TimedSample> samples,
                                          double rate_hz, double max_gap_s) {
  if (samples.empty()) return {};
  return resample_uniform(samples, rate_hz, samples.front().time_s,
                          samples.back().time_s, max_gap_s);
}

}  // namespace tagbreathe::signal
