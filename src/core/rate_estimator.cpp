#include "core/rate_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "signal/filters.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::core {

ZeroCrossingRateEstimator::ZeroCrossingRateEstimator(
    RateEstimatorConfig config)
    : config_(config) {
  if (config_.buffered_crossings < 2)
    throw std::invalid_argument("rate estimator: need M >= 2 crossings");
}

RateEstimate ZeroCrossingRateEstimator::estimate(
    std::span<const signal::TimedSample> breath) const {
  RateEstimate out;
  if (breath.size() < 4) return out;

  std::vector<double> values;
  values.reserve(breath.size());
  for (const auto& s : breath) values.push_back(s.value);
  const double hyst =
      signal::hysteresis_from_peak(values, config_.hysteresis_fraction);
  out.crossings = signal::detect_zero_crossings(breath, hyst);

  const auto m = static_cast<std::size_t>(config_.buffered_crossings);
  if (out.crossings.size() >= m) {
    // Instantaneous Eq. 5 rates over a sliding buffer of M crossings.
    for (std::size_t i = m - 1; i < out.crossings.size(); ++i) {
      const double t_new = out.crossings[i].time_s;
      const double t_old = out.crossings[i - (m - 1)].time_s;
      if (t_new <= t_old) continue;
      const double rate_hz =
          (static_cast<double>(m) - 1.0) / (2.0 * (t_new - t_old));
      out.instantaneous.push_back(
          RatePoint{t_new, common::hz_to_bpm(rate_hz)});
    }
  }

  // Window rate: from the *median full period* — the interval between
  // successive same-direction (rising) crossings. One full period per
  // breath makes the statistic immune to inhale/exhale asymmetry (which
  // alternates short/long half-periods), and the median ignores the
  // doubled periods left by occasionally missed crossings — whereas
  // every Eq. 5 M-window containing a single miss is biased.
  std::vector<double> periods;
  {
    double prev_rising = -1.0;
    for (const auto& c : out.crossings) {
      if (c.direction != signal::CrossingDirection::Rising) continue;
      if (prev_rising >= 0.0 && c.time_s > prev_rising)
        periods.push_back(c.time_s - prev_rising);
      prev_rising = c.time_s;
    }
  }
  if (periods.size() >= 2) {
    out.rate_bpm = common::hz_to_bpm(1.0 / common::median(periods));
  } else if (out.crossings.size() >= 2) {
    // Too few crossings for an M-buffer: Eq. 5 over the full span.
    const double span =
        out.crossings.back().time_s - out.crossings.front().time_s;
    if (span > 0.0) {
      const double rate_hz =
          (static_cast<double>(out.crossings.size()) - 1.0) / (2.0 * span);
      out.rate_bpm = common::hz_to_bpm(rate_hz);
    }
  }
  bool consistent = true;
  if (config_.max_period_dispersion > 0.0 && periods.size() >= 3) {
    const auto [lo, hi] = std::minmax_element(periods.begin(), periods.end());
    const double med = common::median(periods);
    consistent =
        med > 0.0 && (*hi - *lo) <= config_.max_period_dispersion * med;
  }
  out.reliable = out.crossings.size() >= m &&
                 out.rate_bpm >= config_.min_rate_bpm &&
                 out.rate_bpm <= config_.max_rate_bpm && consistent;
  return out;
}

double fft_peak_rate_bpm(std::span<const signal::TimedSample> track,
                         double sample_rate_hz, const FftPeakConfig& config) {
  if (track.size() < 8) return 0.0;
  std::vector<double> values;
  values.reserve(track.size());
  for (const auto& s : track) values.push_back(s.value);
  signal::detrend_linear(values);

  const double f_lo = common::bpm_to_hz(config.min_rate_bpm);
  const double f_hi = common::bpm_to_hz(config.max_rate_bpm);

  if (!config.raw_bin) {
    return common::hz_to_bpm(signal::dominant_frequency(
        values, sample_rate_hz, f_lo, f_hi));
  }

  // Raw-bin variant: the estimator the paper rejects. Resolution is
  // fs/N = 1/window-length.
  const auto bins = signal::periodogram(values, sample_rate_hz,
                                        signal::WindowType::Hann);
  double best_f = 0.0, best_p = -1.0;
  for (const auto& bin : bins) {
    if (bin.frequency_hz < f_lo || bin.frequency_hz > f_hi) continue;
    if (bin.power > best_p) {
      best_p = bin.power;
      best_f = bin.frequency_hz;
    }
  }
  return common::hz_to_bpm(best_f);
}

}  // namespace tagbreathe::core
