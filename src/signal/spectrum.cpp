#include "signal/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "signal/fft.hpp"

namespace tagbreathe::signal {

using tagbreathe::common::kTwoPi;

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

double autocorrelation_fundamental(std::span<const double> x,
                                   double sample_rate_hz, double f_lo,
                                   double f_hi) {
  FftWorkspace ws;
  return autocorrelation_fundamental(x, sample_rate_hz, f_lo, f_hi, ws);
}

double autocorrelation_fundamental(std::span<const double> x,
                                   double sample_rate_hz, double f_lo,
                                   double f_hi, FftWorkspace& ws) {
  if (sample_rate_hz <= 0.0 || f_lo <= 0.0 || f_hi <= f_lo)
    throw std::invalid_argument("autocorrelation_fundamental: bad band");
  const std::size_t nx = x.size();
  if (nx < 16) return 0.0;

  const auto lag_min = static_cast<std::size_t>(
      std::ceil(sample_rate_hz / f_hi));
  auto lag_max = static_cast<std::size_t>(
      std::floor(sample_rate_hz / f_lo));
  if (lag_max >= nx) lag_max = nx - 1;
  if (lag_min + 2 > lag_max) return 0.0;

  // Unbiased ACF via FFT. Zero-padding to m >= N + lag_max keeps every
  // lag read below free of circular wrap. The power spectrum |X|^2 is
  // real and even, so a second FORWARD real transform is its inverse up
  // to the factor m, which cancels in r[lag] / r[0].
  const std::size_t m = next_pow2(nx + lag_max);
  const auto plan = RealFftPlan::get(m);
  std::vector<double>& sig = ws.signal;
  std::vector<cdouble>& bins = ws.spectrum;
  sig.assign(m, 0.0);
  bins.resize(m);
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(nx);
  for (std::size_t i = 0; i < nx; ++i) sig[i] = x[i] - mean;
  plan->execute(sig, bins, ws.scratch);
  for (std::size_t k = 0; k < m; ++k) sig[k] = std::norm(bins[k]);
  plan->execute(sig, bins, ws.scratch);

  const double r0 = bins[0].real();
  if (r0 <= 0.0) return 0.0;

  // Normalised, bias-corrected ACF over the admissible lags, staged in
  // `sig` (its power spectrum is spent).
  std::vector<double>& acf = sig;
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag) {
    const double unbias =
        static_cast<double>(nx) / static_cast<double>(nx - lag);
    acf[lag] = bins[lag].real() / r0 * unbias;
  }

  // Collect local maxima in [lag_min, lag_max].
  double best_val = -2.0;
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag) {
    const bool is_peak =
        (lag > lag_min && lag + 1 <= lag_max)
            ? acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1]
            : false;
    if (is_peak) best_val = std::max(best_val, acf[lag]);
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
      return sample_rate_hz / (static_cast<double>(lag) + delta);
    }
  }
  return 0.0;
}

double dominant_frequency_significant(std::span<const double> x,
                                      double sample_rate_hz, double f_lo,
                                      double f_hi, WindowType window) {
  std::vector<SpectrumBin> bins = periodogram(x, sample_rate_hz, window);
  if (bins.size() < 8) return 0.0;

  // Work on f^2-whitened powers: integrated (1/f^2) noise becomes locally
  // flat, so the median background is meaningful even at the band's low
  // edge where raw walk power dwarfs everything. Peak positions are
  // unchanged by the monotone per-bin weight.
  for (SpectrumBin& b : bins)
    b.power *= b.frequency_hz * b.frequency_hz;

  // Local median background: for each bin, the median power of the
  // surrounding window with the bin's immediate neighbourhood (the peak
  // itself) excluded.
  const std::ptrdiff_t half = 12;   // background window half-width [bins]
  const std::ptrdiff_t guard = 2;   // bins excluded around the candidate
  const auto n = static_cast<std::ptrdiff_t>(bins.size());

  // Significance of one bin: power over the local median background.
  std::vector<double> neigh;
  const auto significance = [&](std::ptrdiff_t k) -> double {
    const auto ku = static_cast<std::size_t>(k);
    neigh.clear();
    for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(1, k - half);
         j <= std::min(n - 1, k + half); ++j) {
      if (std::abs(j - k) <= guard) continue;
      neigh.push_back(bins[static_cast<std::size_t>(j)].power);
    }
    if (neigh.empty()) return 0.0;
    std::nth_element(neigh.begin(), neigh.begin() + neigh.size() / 2,
                     neigh.end());
    const double background = neigh[neigh.size() / 2];
    return background > 0.0 ? bins[ku].power / background : bins[ku].power;
  };

  // Harmonic-sum scoring: a true breathing fundamental accumulates
  // evidence from its (asymmetric-waveform) second harmonic, while an
  // isolated noise spike does not.
  std::size_t best = 0;
  double best_ratio = -1.0;
  for (std::ptrdiff_t k = 0; k < n; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    if (bins[ku].frequency_hz < f_lo || bins[ku].frequency_hz > f_hi)
      continue;
    double score = significance(k);
    if (2 * k < n) {
      // Best significance within +-1 bin of the second harmonic.
      double harm = 0.0;
      for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(1, 2 * k - 1);
           j <= std::min(n - 1, 2 * k + 1); ++j)
        harm = std::max(harm, significance(j));
      score += 0.5 * harm;
    }
    if (score > best_ratio) {
      best_ratio = score;
      best = ku;
    }
  }
  if (best_ratio <= 0.0) return 0.0;

  // Harmonic disambiguation: breathing waveforms are asymmetric, so the
  // second harmonic carries real power and can out-score the fundamental
  // when low-frequency noise raises the fundamental's local background.
  // If a clearly significant peak exists near half the winning frequency,
  // prefer it.
  {
    const double half_f = bins[best].frequency_hz / 2.0;
    if (half_f >= f_lo) {
      const double bin_width = bins[1].frequency_hz - bins[0].frequency_hz;
      const auto centre = static_cast<std::ptrdiff_t>(
          std::llround(half_f / bin_width));
      std::size_t sub_best = 0;
      double sub_ratio = -1.0;
      for (std::ptrdiff_t k = std::max<std::ptrdiff_t>(1, centre - 2);
           k <= std::min(n - 1, centre + 2); ++k) {
        const auto ku = static_cast<std::size_t>(k);
        if (bins[ku].frequency_hz < f_lo) continue;
        neigh.clear();
        for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(1, k - half);
             j <= std::min(n - 1, k + half); ++j) {
          if (std::abs(j - k) <= guard) continue;
          neigh.push_back(bins[static_cast<std::size_t>(j)].power);
        }
        if (neigh.empty()) continue;
        std::nth_element(neigh.begin(), neigh.begin() + neigh.size() / 2,
                         neigh.end());
        const double background = neigh[neigh.size() / 2];
        const double ratio =
            background > 0.0 ? bins[ku].power / background : bins[ku].power;
        if (ratio > sub_ratio) {
          sub_ratio = ratio;
          sub_best = ku;
        }
      }
      if (sub_ratio >= std::max(3.0, 0.25 * best_ratio)) best = sub_best;
    }
  }

  // Parabolic refinement as in the plain search.
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


void fft_bandlimit_many(std::span<const BandLimitJob> jobs, FftWorkspace& ws) {
  const std::size_t count = jobs.size();
  if (count == 0) return;

  // High-water staging: nothing here ever shrinks, so a warm workspace
  // runs any previously-seen batch shape without allocating. Empty
  // signals ride along: an empty spectrum inverts to an empty output.
  if (ws.spectra.size() < count) ws.spectra.resize(count);
  ws.fwd_jobs.clear();
  ws.mask_jobs.clear();
  for (std::size_t j = 0; j < count; ++j) {
    const BandLimitJob& job = jobs[j];
    ws.fwd_jobs.push_back(RealFftJob{job.x, &ws.spectra[j]});
    ws.mask_jobs.push_back(BandMaskJob{&ws.spectra[j], job.sample_rate_hz,
                                       job.f_lo, job.f_hi, job.out});
  }
  fft_real_many(ws.fwd_jobs, ws.scratch);
  bandlimit_inverse_many(ws.mask_jobs, ws);
}

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
      const double f = std::abs(bin_frequency(k, n, job.sample_rate_hz));
      if (f < job.f_lo || f > job.f_hi) spectrum[k] = cdouble(0.0, 0.0);
    }
    ws.inv_jobs.push_back(RealIfftJob{spectrum, job.out});
  }
  ifft_real_many(ws.inv_jobs, ws.scratch);
}

namespace {

void fft_bandlimit_into(std::span<const double> x, double sample_rate_hz,
                        double f_lo, double f_hi, FftWorkspace& ws,
                        std::vector<double>& out) {
  const BandLimitJob job{x, sample_rate_hz, f_lo, f_hi, &out};
  fft_bandlimit_many({&job, 1}, ws);
}

}  // namespace

void fft_lowpass_into(std::span<const double> x, double sample_rate_hz,
                      double cutoff_hz, bool remove_dc, FftWorkspace& ws,
                      std::vector<double>& out) {
  if (cutoff_hz <= 0.0)
    throw std::invalid_argument("fft_lowpass: cutoff must be positive");
  const double f_lo = remove_dc ? kDcRejectHz : 0.0;
  fft_bandlimit_into(x, sample_rate_hz, f_lo, cutoff_hz, ws, out);
}

void fft_bandpass_into(std::span<const double> x, double sample_rate_hz,
                       double f_lo, double f_hi, FftWorkspace& ws,
                       std::vector<double>& out) {
  if (f_lo < 0.0 || f_hi <= f_lo)
    throw std::invalid_argument("fft_bandpass: need 0 <= f_lo < f_hi");
  fft_bandlimit_into(x, sample_rate_hz, f_lo, f_hi, ws, out);
}

std::vector<double> fft_lowpass(std::span<const double> x,
                                double sample_rate_hz, double cutoff_hz,
                                bool remove_dc) {
  FftWorkspace ws;
  std::vector<double> out;
  fft_lowpass_into(x, sample_rate_hz, cutoff_hz, remove_dc, ws, out);
  return out;
}

std::vector<double> fft_bandpass(std::span<const double> x,
                                 double sample_rate_hz, double f_lo,
                                 double f_hi) {
  FftWorkspace ws;
  std::vector<double> out;
  fft_bandpass_into(x, sample_rate_hz, f_lo, f_hi, ws, out);
  return out;
}

double goertzel_power(std::span<const double> x, double sample_rate_hz,
                      double freq_hz) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("goertzel: sample rate must be positive");
  const std::size_t n = x.size();
  if (n == 0) return 0.0;
  // Nearest integer bin.
  const double k = std::round(freq_hz / sample_rate_hz * static_cast<double>(n));
  const double omega = kTwoPi * k / static_cast<double>(n);
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0, s_prev2 = 0.0;
  for (double v : x) {
    const double s = v + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  const double power =
      s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
  return power / (static_cast<double>(n) * static_cast<double>(n));
}

double band_power_ratio(std::span<const double> x, double sample_rate_hz,
                        double f_lo, double f_hi) {
  const std::vector<SpectrumBin> bins =
      periodogram(x, sample_rate_hz, WindowType::Hann);
  double band = 0.0, total = 0.0;
  for (const SpectrumBin& bin : bins) {
    if (bin.frequency_hz <= 0.0) continue;  // exclude DC
    total += bin.power;
    if (bin.frequency_hz >= f_lo && bin.frequency_hz <= f_hi)
      band += bin.power;
  }
  return total > 0.0 ? band / total : 0.0;
}

}  // namespace tagbreathe::signal
