#include "signal/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/fft.hpp"

namespace tagbreathe::signal {

std::vector<SpectrumBin> periodogram(std::span<const double> x,
                                     double sample_rate_hz,
                                     WindowType window) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("periodogram: sample rate must be positive");
  if (x.empty()) return {};

  std::vector<double> data(x.begin(), x.end());
  const std::vector<double> w = make_window(window, data.size());
  apply_window(data, w);

  const std::vector<cdouble> spectrum = fft_real(data);
  const std::size_t n = spectrum.size();
  const double wsum = window_gain(w);
  const double norm = wsum > 0.0 ? 1.0 / (wsum * wsum) : 0.0;

  std::vector<SpectrumBin> bins;
  bins.reserve(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    SpectrumBin bin;
    bin.frequency_hz = static_cast<double>(k) * sample_rate_hz /
                       static_cast<double>(n);
    const double mag2 = std::norm(spectrum[k]);
    // One-sided: double the interior bins to account for negative
    // frequencies.
    const bool interior = k != 0 && (n % 2 != 0 || k != n / 2);
    bin.power = (interior ? 2.0 : 1.0) * mag2 * norm;
    bins.push_back(bin);
  }
  return bins;
}

double dominant_frequency(std::span<const double> x, double sample_rate_hz,
                          double f_lo, double f_hi, WindowType window) {
  const std::vector<SpectrumBin> bins = periodogram(x, sample_rate_hz, window);
  std::size_t best = 0;
  bool found = false;
  for (std::size_t k = 0; k < bins.size(); ++k) {
    if (bins[k].frequency_hz < f_lo || bins[k].frequency_hz > f_hi) continue;
    if (!found || bins[k].power > bins[best].power) {
      best = k;
      found = true;
    }
  }
  if (!found) return 0.0;

  // Quadratic (parabolic) interpolation around the peak bin to refine
  // beyond the fs/N grid.
  if (best == 0 || best + 1 >= bins.size()) return bins[best].frequency_hz;
  const double p0 = bins[best - 1].power;
  const double p1 = bins[best].power;
  const double p2 = bins[best + 1].power;
  const double denom = p0 - 2.0 * p1 + p2;
  double delta = 0.0;
  if (std::abs(denom) > 1e-30) delta = 0.5 * (p0 - p2) / denom;
  delta = std::clamp(delta, -0.5, 0.5);
  const double bin_width = bins[1].frequency_hz - bins[0].frequency_hz;
  return bins[best].frequency_hz + delta * bin_width;
}

std::size_t acf_decimation(double sample_rate_hz, double cutoff_hz) {
  if (sample_rate_hz <= 0.0 || cutoff_hz <= 0.0)
    throw std::invalid_argument("acf_decimation: bad rate or cutoff");
  const double d = std::floor(sample_rate_hz / (6.0 * cutoff_hz));
  return d < 1.0 ? 1 : static_cast<std::size_t>(d);
}

double autocorrelation_fundamental(std::span<const double> y,
                                   double sample_rate_hz, std::size_t stride,
                                   double f_lo, double f_hi, FftWorkspace& ws) {
  if (sample_rate_hz <= 0.0 || stride == 0 || f_lo <= 0.0 || f_hi <= f_lo)
    throw std::invalid_argument("autocorrelation_fundamental: bad band");
  const std::size_t ny = y.size();
  if (ny < 16) return 0.0;

  // Peaks are searched at the grid lags lag_min+1..lag_max-1: those whose
  // period, lag*stride samples, lies in the full-rate range. Rounding the
  // range itself onto the coarser grid would cut off its ends (a 5 Hz
  // grid from 0.67 Hz loses 0.625-0.667 Hz to the boundary lag).
  const double step = static_cast<double>(stride);
  const auto lag_min = static_cast<std::size_t>(
      std::ceil(std::ceil(sample_rate_hz / f_hi) / step) - 1.0);
  const auto lag_max = static_cast<std::size_t>(
      std::min(std::floor(std::floor(sample_rate_hz / f_lo) / step) + 1.0,
               static_cast<double>(ny - 1)));
  if (lag_min + 2 > lag_max) return 0.0;

  // ws.acf holds the mean-removed samples, then r[lag] / r[0] at
  // lag_min..lag_max.
  std::vector<double>& buf = ws.acf;
  buf.resize(ny + lag_max + 1);
  double* const c = buf.data();
  double* const acf = c + ny;
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(ny);
  for (std::size_t i = 0; i < ny; ++i) c[i] = y[i] - mean;
  double r0 = 0.0;
  for (std::size_t i = 0; i < ny; ++i) r0 += c[i] * c[i];
  if (r0 <= 0.0) return 0.0;
  // Each lag sums its products in ascending i; the loop runs across the
  // lags so they accumulate side by side.
  std::fill(acf + lag_min, acf + lag_max + 1, 0.0);
  for (std::size_t i = 0; i + lag_min < ny; ++i) {
    const std::size_t top = std::min(lag_max, ny - 1 - i);
    const double ci = c[i];
    for (std::size_t lag = lag_min; lag <= top; ++lag)
      acf[lag] += ci * c[i + lag];
  }
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag) acf[lag] /= r0;

  // Collect local maxima in [lag_min, lag_max].
  double best_val = -2.0;
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag) {
    if (acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1])
      best_val = std::max(best_val, acf[lag]);
  }
  if (best_val <= 0.0) return 0.0;

  // Smallest peak lag within 90% of the best peak resolves multiples.
  for (std::size_t lag = lag_min + 1; lag + 1 <= lag_max; ++lag) {
    if (acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1] &&
        acf[lag] >= 0.9 * best_val) {
      // Parabolic refinement of the peak lag.
      const double p0 = acf[lag - 1];
      const double p1 = acf[lag];
      const double p2 = acf[lag + 1];
      const double denom = p0 - 2.0 * p1 + p2;
      double delta = 0.0;
      if (std::abs(denom) > 1e-30) delta = 0.5 * (p0 - p2) / denom;
      delta = std::clamp(delta, -0.5, 0.5);
      return sample_rate_hz / (step * (static_cast<double>(lag) + delta));
    }
  }
  return 0.0;
}

namespace {

// The band mask: bin k of an n-point spectrum survives when its
// |frequency| lies in [f_lo, f_hi]. The full and the band paths both ask
// here, so they keep the same bins.
bool band_keeps(std::size_t k, std::size_t n, double sample_rate_hz,
                double f_lo, double f_hi) noexcept {
  const double f = std::abs(bin_frequency(k, n, sample_rate_hz));
  return !(f < f_lo || f > f_hi);
}

}  // namespace

void bandlimit_inverse_many(std::span<const BandMaskJob> jobs,
                            FftWorkspace& ws) {
  for (const BandMaskJob& job : jobs) {
    if (job.sample_rate_hz <= 0.0)
      throw std::invalid_argument("fft filter: sample rate must be positive");
  }
  ws.inv_jobs.clear();
  for (const BandMaskJob& job : jobs) {
    std::vector<cdouble>& spectrum = *job.spectrum;
    const std::size_t n = spectrum.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (!band_keeps(k, n, job.sample_rate_hz, job.f_lo, job.f_hi))
        spectrum[k] = cdouble(0.0, 0.0);
    }
    ws.inv_jobs.push_back(RealIfftJob{spectrum, job.out});
  }
  ifft_real_many(ws.inv_jobs, ws.scratch);
}

std::size_t band_top_bin(std::size_t n, double sample_rate_hz, double f_hi) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("band_top_bin: sample rate must be positive");
  // |frequency| rises with k up to n/2 for both a bin and its mirror, so
  // the kept bins below n/2 form a prefix.
  std::size_t k = 0;
  while (k < n / 2 && (band_keeps(k + 1, n, sample_rate_hz, 0.0, f_hi) ||
                       band_keeps(n - k - 1, n, sample_rate_hz, 0.0, f_hi)))
    ++k;
  return k;
}

void band_synthesize(const BandPlan& plan, std::span<const cdouble> bins,
                     double sample_rate_hz, double f_lo, double f_hi,
                     std::vector<double>& out, FftWorkspace& ws,
                     std::size_t stride) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("fft filter: sample rate must be positive");
  const std::size_t n = plan.size();
  if (bins.size() != plan.max_bin() + 1)
    throw std::invalid_argument("band_synthesize: need bins 0..K");
  if (stride == 0)
    throw std::invalid_argument("band_synthesize: stride must be positive");
  // Weight each kept bin by the bins it stands for in the full inverse:
  // even n reads bins 0..n/2 and mirrors them, so a kept bin k > 0 counts
  // twice; odd n folds bin n-k onto bin k, so each of the pair counts
  // once. The DC bin enters through its real part alone.
  const auto weight = [&](std::size_t k) {
    const double w = band_keeps(k, n, sample_rate_hz, f_lo, f_hi) ? 1.0 : 0.0;
    if (k == 0) return w;
    if (n % 2 == 0) return 2.0 * w;
    return w + (band_keeps(n - k, n, sample_rate_hz, f_lo, f_hi) ? 1.0 : 0.0);
  };
  std::size_t first = 0;
  std::size_t last = 0;  // the kept run is [first, last)
  for (std::size_t k = 0; k < bins.size(); ++k) {
    if (weight(k) == 0.0) continue;
    if (last == 0) first = k;
    last = k + 1;
  }
  ws.band.clear();
  for (std::size_t k = first; k < last; ++k)
    ws.band.push_back(k == 0 ? cdouble(weight(0) * bins[0].real(), 0.0)
                             : weight(k) * bins[k]);
  out.resize((n + stride - 1) / stride);
  plan.synthesize(ws.band, first, stride, out, ws.scratch);
}

}  // namespace tagbreathe::signal
