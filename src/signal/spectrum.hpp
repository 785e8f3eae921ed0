// Spectral analysis: periodogram, dominant frequency, the paper's
// FFT-based low-pass filter, and Goertzel single-bin evaluation.
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

/// Reusable buffers for the plan-based spectral filters and the ACF.
/// One workspace per thread; after the first call of a given size,
/// repeated filtering through the same workspace performs no heap
/// allocation (the analysis engine keeps one per worker). Buffers never
/// shrink (high-water sizing), so a steady-state batch of any previously
/// seen shape stays allocation-free.
struct FftWorkspace {
  FftScratch scratch;
  std::vector<cdouble> spectrum;  // ACF bins (padded power-spectrum round trip)
  std::vector<double> signal;     // ACF real staging (padded track, then |X|^2)
  /// Per-job bins for batched filters (fft_bandlimit_many, and
  /// BreathExtractor::extract_many's shared forward sweep): the whole
  /// batch's forward transforms must be live at once between the
  /// forward and inverse sweeps.
  std::vector<std::vector<cdouble>> spectra;
  std::vector<RealFftJob> fwd_jobs;    // batched-sweep staging
  std::vector<BandMaskJob> mask_jobs;  // batched-sweep staging
  std::vector<RealIfftJob> inv_jobs;   // batched-sweep staging
};

/// The f_lo used to knock out the DC bin when a low-pass asks for
/// remove_dc: any positive value below the first bin's frequency works;
/// shared so single and batched paths agree exactly.
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

/// Fundamental-frequency estimate via the normalised autocorrelation
/// (pitch-detection style). The ACF concentrates evidence from the
/// fundamental *and* all harmonics at the true period, tolerates both
/// white and random-walk noise, and resolves the period-multiple
/// ambiguity by taking the smallest peak lag within 90% of the best.
/// Searches periods in [1/f_hi, 1/f_lo]; returns 0 when no peak exists.
/// `x` should be detrended / low-passed to f_hi by the caller. Delegates
/// to the workspace overload with a throwaway workspace.
double autocorrelation_fundamental(std::span<const double> x,
                                   double sample_rate_hz, double f_lo,
                                   double f_hi);

/// autocorrelation_fundamental through a caller-owned workspace: the
/// ACF runs as two forward real transforms of the cached
/// RealFftPlan(next_pow2(N + L)), L the longest searched lag (at most
/// N - 1), and stages everything in ws.signal, ws.spectrum and
/// ws.scratch (ws.spectra and the job arrays are untouched).
/// Allocation-free once `ws` has seen the size.
double autocorrelation_fundamental(std::span<const double> x,
                                   double sample_rate_hz, double f_lo,
                                   double f_hi, FftWorkspace& ws);

/// Noise-colour-agnostic peak search: ranks bins by their power relative
/// to a local median background (the smoothed spectrum with the bin's own
/// neighbourhood excluded). A narrow oscillation peak stands far above
/// its local background whatever the broadband noise slope (white
/// boundary noise, 1/f^2 random walk, or a mix — the displacement tracks
/// of this system carry both).
double dominant_frequency_significant(std::span<const double> x,
                                      double sample_rate_hz, double f_lo,
                                      double f_hi,
                                      WindowType window = WindowType::Hann);

/// The paper's breath-extraction filter (Sec. IV-B): FFT the series, zero
/// every bin whose |frequency| exceeds `cutoff_hz` (0.67 Hz in the paper,
/// i.e. 40 bpm), inverse FFT back to the time domain. Zero-phase by
/// construction. The DC bin is also removed: the breathing signal is an
/// oscillation around the rest chest position.
std::vector<double> fft_lowpass(std::span<const double> x,
                                double sample_rate_hz, double cutoff_hz,
                                bool remove_dc = true);

/// Band-pass variant used by the robustness extensions: keeps bins with
/// f_lo <= |f| <= f_hi.
std::vector<double> fft_bandpass(std::span<const double> x,
                                 double sample_rate_hz, double f_lo,
                                 double f_hi);

/// Plan-based fft_lowpass into a caller buffer. `out` is resized to
/// x.size(); steady-state calls (warm workspace, same window length)
/// perform zero heap allocations. The one-shot overload above delegates
/// here with a throwaway workspace.
void fft_lowpass_into(std::span<const double> x, double sample_rate_hz,
                      double cutoff_hz, bool remove_dc, FftWorkspace& ws,
                      std::vector<double>& out);

/// Plan-based fft_bandpass into a caller buffer (see fft_lowpass_into).
void fft_bandpass_into(std::span<const double> x, double sample_rate_hz,
                       double f_lo, double f_hi, FftWorkspace& ws,
                       std::vector<double>& out);

/// One signal of a batched band-limit sweep: keep bins with
/// f_lo <= |f| <= f_hi, zero the rest. `out` is resized to x.size().
struct BandLimitJob {
  std::span<const double> x;
  double sample_rate_hz = 0.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  std::vector<double>* out = nullptr;
};

/// Batched band-limit filter: one forward sweep over every job (shared
/// plan, fetched once per size change) into ws.spectra, then
/// bandlimit_inverse_many. Bit-identical to running fft_lowpass_into /
/// fft_bandpass_into per job — the single-job helpers delegate here —
/// and allocation-free once `ws` has seen the batch shape.
void fft_bandlimit_many(std::span<const BandLimitJob> jobs, FftWorkspace& ws);

/// The mask-and-inverse half of fft_bandlimit_many, for callers that
/// already hold the forward spectra: per-job bin zeroing, then one
/// inverse sweep (staged in ws.inv_jobs). The same spectrum and band
/// give bit-identical output to fft_bandlimit_many.
void bandlimit_inverse_many(std::span<const BandMaskJob> jobs,
                            FftWorkspace& ws);

/// Goertzel algorithm: power of the single DFT bin nearest `freq_hz`.
/// O(N) per frequency — cheaper than a full FFT when the pipeline only
/// needs the power in a handful of candidate breathing bins.
double goertzel_power(std::span<const double> x, double sample_rate_hz,
                      double freq_hz);

/// Ratio of band power in [f_lo, f_hi] to total power (DC excluded).
/// Used as a signal-quality metric by the antenna selector.
double band_power_ratio(std::span<const double> x, double sample_rate_hz,
                        double f_lo, double f_hi);

}  // namespace tagbreathe::signal
