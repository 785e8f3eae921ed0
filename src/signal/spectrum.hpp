// Spectral analysis: periodogram, dominant frequency, the ACF
// fundamental, and the paper's FFT band filter (Sec. IV-B) in its full
// (mask-and-inverse) and band (bins 0..K) forms.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signal/fft.hpp"
#include "signal/window.hpp"

namespace tagbreathe::signal {

/// One spectrum of a batched mask-and-inverse sweep: zero every bin
/// whose |frequency| lies outside [f_lo, f_hi] (in place), then inverse
/// transform it into `out` (resized to spectrum->size()).
struct BandMaskJob {
  std::vector<cdouble>* spectrum = nullptr;
  double sample_rate_hz = 0.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  std::vector<double>* out = nullptr;
};

/// Reusable buffers for the plan-based spectral filters and the ACF seed.
/// One workspace per thread; after the first call of a given size,
/// repeated filtering through the same workspace performs no heap
/// allocation (the analysis engine keeps one per worker). Buffers never
/// shrink (high-water sizing), so a steady-state batch of any previously
/// seen shape stays allocation-free.
struct FftWorkspace {
  FftScratch scratch;
  std::vector<double> acf;  // ACF seed staging: centred samples, then r[lag]
  /// Per-job bins of BreathExtractor::extract_many's shared forward
  /// sweep: the whole batch's forward transforms must be live at once
  /// between the forward and inverse sweeps.
  std::vector<std::vector<cdouble>> spectra;
  std::vector<RealIfftJob> inv_jobs;  // bandlimit_inverse_many staging
  std::vector<cdouble> band;  // band_synthesize staging: weighted kept bins
};

/// The f_lo used to knock out the DC bin in a low-pass: any positive
/// value below the first bin's frequency works; shared so the full and
/// band paths keep the same bins.
inline constexpr double kDcRejectHz = 1e-12;

/// One-sided power spectrum sample: frequency [Hz] and power.
struct SpectrumBin {
  double frequency_hz = 0.0;
  double power = 0.0;
};

/// Windowed periodogram: one-sided power spectral estimate of `x` sampled
/// at `sample_rate_hz`. Bin spacing is fs/N — the 1/w resolution the paper
/// calls out (25 s window -> 0.04 Hz -> 2.4 bpm quantisation).
std::vector<SpectrumBin> periodogram(std::span<const double> x,
                                     double sample_rate_hz,
                                     WindowType window = WindowType::Hann);

/// Frequency [Hz] of the strongest bin within [f_lo, f_hi]; refined by
/// quadratic interpolation of the peak and its neighbours. Returns 0 if
/// no bin falls in the band.
double dominant_frequency(std::span<const double> x, double sample_rate_hz,
                          double f_lo, double f_hi,
                          WindowType window = WindowType::Hann);

/// Decimation D of the ACF seed for a signal at `sample_rate_hz` that
/// is band-limited to `cutoff_hz`: floor(fs / (6 * cutoff)), at least 1,
/// so the seed's grid fs/D stays at least six times the cutoff (D = 4,
/// a 5 Hz grid, for the realtime 20 Hz tracks and 0.67 Hz cutoff): three
/// times the signal's Nyquist rate, so the decimated samples lose none
/// of it.
std::size_t acf_decimation(double sample_rate_hz, double cutoff_hz);

/// Fundamental-frequency estimate via the normalised autocorrelation
/// (pitch-detection style), the seed of the extractor's adaptive band.
/// The ACF concentrates evidence from the fundamental *and* all
/// harmonics at the true period, tolerates both white and random-walk
/// noise, and resolves the period-multiple ambiguity by taking the
/// smallest peak lag within 90% of the best.
///
/// `y` holds every `stride`-th sample (y[i] = x[i*stride]) of a signal x
/// at `sample_rate_hz` that the caller has detrended and low-passed to
/// f_hi. The ACF is the direct linear sum r[lag] = sum_i y[i]*y[i+lag]
/// of the mean-removed samples, judged raw as r[lag]/r[0]: the
/// n/(n-lag) bias correction would lift period multiples over the
/// fundamental. The peaks searched are the grid lags whose period lies
/// in the full-rate range [ceil(fs/f_hi), floor(fs/f_lo)] samples (and
/// below y.size()); the one lag past each end feeds only the peak test
/// and the parabolic refinement. Returns 0 when no peak exists. Stages
/// in ws.acf; allocation-free once `ws` has seen the size.
double autocorrelation_fundamental(std::span<const double> y,
                                   double sample_rate_hz, std::size_t stride,
                                   double f_lo, double f_hi, FftWorkspace& ws);

/// The paper's breath-extraction filter (Sec. IV-B) over spectra the
/// caller already holds (fft_real_many): per job, zero every bin whose
/// |frequency| lies outside [f_lo, f_hi], then run one inverse sweep
/// (staged in ws.inv_jobs). Zero-phase by construction; f_lo =
/// kDcRejectHz makes it the paper's low-pass with the DC bin removed.
/// Throws std::invalid_argument on a non-positive sample rate.
void bandlimit_inverse_many(std::span<const BandMaskJob> jobs,
                            FftWorkspace& ws);

/// Highest bin k <= n/2 of an n-point spectrum that a band mask with
/// upper edge f_hi can keep, through bin k itself or its mirror n-k
/// (their |frequency| can differ in the last bit). The mask of every
/// band [f_lo, f_hi'] with f_hi' <= f_hi keeps no bin above it or below
/// its mirror, so a BandPlan with this K covers all of them.
std::size_t band_top_bin(std::size_t n, double sample_rate_hz, double f_hi);

/// bandlimit_inverse_many for one spectrum held as bins 0..K
/// (BandPlan::forward, with bins n-K..n-1 their conjugate mirrors):
/// keeps exactly the bins that mask keeps and synthesizes the same
/// signal as the full inverse at a different rounding. `out` is resized
/// to ceil(plan.size() / stride) and receives every stride-th sample of
/// that signal (BandPlan::synthesize). Stages in ws.band and ws.scratch.
/// Allocation-free once `ws` and `out` are warm.
void band_synthesize(const BandPlan& plan, std::span<const cdouble> bins,
                     double sample_rate_hz, double f_lo, double f_hi,
                     std::vector<double>& out, FftWorkspace& ws,
                     std::size_t stride = 1);

}  // namespace tagbreathe::signal
