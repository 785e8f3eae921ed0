#include "signal/fir.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"

namespace tagbreathe::signal {

using tagbreathe::common::kPi;
using tagbreathe::common::kTwoPi;

namespace {

void check_design_args(double cutoff_hz, double sample_rate_hz,
                       std::size_t num_taps) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("FIR design: sample rate must be positive");
  if (cutoff_hz <= 0.0 || cutoff_hz >= sample_rate_hz / 2.0)
    throw std::invalid_argument("FIR design: cutoff must be in (0, fs/2)");
  if (num_taps < 3 || num_taps % 2 == 0)
    throw std::invalid_argument("FIR design: tap count must be odd and >= 3");
}

double sinc(double x) noexcept {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t num_taps, WindowType window) {
  check_design_args(cutoff_hz, sample_rate_hz, num_taps);
  const double fc = cutoff_hz / sample_rate_hz;  // normalised cutoff
  const auto mid = static_cast<std::ptrdiff_t>(num_taps / 2);
  const std::vector<double> w = make_window(window, num_taps);

  std::vector<double> taps(num_taps);
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double n = static_cast<double>(static_cast<std::ptrdiff_t>(i) - mid);
    taps[i] = 2.0 * fc * sinc(2.0 * fc * n) * w[i];
  }
  // Normalise DC gain to exactly 1 so the pass band is unity.
  double dc = 0.0;
  for (double t : taps) dc += t;
  for (double& t : taps) t /= dc;
  return taps;
}

std::vector<double> design_bandpass(double low_hz, double high_hz,
                                    double sample_rate_hz,
                                    std::size_t num_taps, WindowType window) {
  if (low_hz >= high_hz)
    throw std::invalid_argument("design_bandpass: low edge must be < high edge");
  const std::vector<double> lp_high =
      design_lowpass(high_hz, sample_rate_hz, num_taps, window);
  const std::vector<double> lp_low =
      design_lowpass(low_hz, sample_rate_hz, num_taps, window);
  std::vector<double> taps(num_taps);
  for (std::size_t i = 0; i < num_taps; ++i) taps[i] = lp_high[i] - lp_low[i];
  return taps;
}

std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> taps) {
  if (taps.empty()) throw std::invalid_argument("filter_same: empty kernel");
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const auto m = static_cast<std::ptrdiff_t>(taps.size());
  const std::ptrdiff_t delay = m / 2;
  std::vector<double> y(x.size(), 0.0);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::ptrdiff_t k = 0; k < m; ++k) {
      const std::ptrdiff_t j = i + delay - k;
      if (j >= 0 && j < n) acc += taps[static_cast<std::size_t>(k)] *
                                  x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

std::vector<double> filtfilt(std::span<const double> x,
                             std::span<const double> taps) {
  std::vector<double> forward = filter_same(x, taps);
  std::reverse(forward.begin(), forward.end());
  std::vector<double> backward = filter_same(forward, taps);
  std::reverse(backward.begin(), backward.end());
  return backward;
}

std::size_t suggest_num_taps(double transition_hz, double sample_rate_hz) {
  if (transition_hz <= 0.0 || sample_rate_hz <= 0.0)
    throw std::invalid_argument("suggest_num_taps: args must be positive");
  // Harris rule of thumb for ~53 dB attenuation (Hamming): N ~ 3.3 / dF.
  const double normalised = transition_hz / sample_rate_hz;
  auto n = static_cast<std::size_t>(std::ceil(3.3 / normalised));
  if (n < 3) n = 3;
  if (n % 2 == 0) ++n;
  return n;
}

}  // namespace tagbreathe::signal
