// Breath-signal extraction (Sec. IV-B, Fig. 8).
//
// The fused displacement track is conditioned (detrended — integrated
// phase noise drifts), then low-pass filtered below the maximum plausible
// breathing frequency. The paper's primary filter is FFT-based: FFT ->
// zero all bins above 0.67 Hz (40 breaths/min) -> IFFT; it also notes an
// FIR low-pass works. Both are implemented; a band-pass variant that also
// suppresses sub-breathing drift (< ~3 bpm) is the default low cut.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "signal/interpolate.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::core {

enum class FilterKind {
  FftLowpass,  // the paper's filter
  FirLowpass,  // the paper's stated alternative (zero-phase filtfilt)
};

const char* filter_kind_name(FilterKind kind) noexcept;

struct ExtractorConfig {
  FilterKind filter = FilterKind::FftLowpass;
  /// Upper cutoff: 0.67 Hz = 40 bpm (paper value).
  double cutoff_hz = 0.67;
  /// Lower cutoff to reject integrated-noise drift below any plausible
  /// breathing rate (0.05 Hz = 3 bpm). Set to 0 for the paper's pure
  /// low-pass behaviour (DC is always removed).
  double low_cut_hz = 0.05;
  /// Remove the least-squares linear trend before filtering.
  bool detrend = true;
  /// FIR transition band width [Hz] (tap count follows from it).
  double fir_transition_hz = 0.2;
  /// Adaptive band: first locate the spectral peak inside the breathing
  /// band, then pass only [adaptive_lo_frac, adaptive_hi_frac] x peak
  /// before zero-crossing detection. Sharpens the paper's "prior
  /// knowledge of breathing rates" argument: integrated phase noise is
  /// strongest at the band's low edge, and a 25 s window resolves the
  /// peak well enough to centre the band even though it is too coarse to
  /// *be* the estimate. Disable for the paper's plain 0.67 Hz low-pass.
  bool adaptive_band = true;
  double adaptive_lo_frac = 0.6;
  double adaptive_hi_frac = 1.5;
  /// Floor of the adaptive peak search [Hz]: 0.075 Hz ~ 4.5 bpm, just
  /// below the slowest rate the paper evaluates (5 bpm), so sub-breathing
  /// drift cannot capture the band.
  double peak_search_floor_hz = 0.075;
};

/// Extracted breath signal on the fused track's uniform grid.
struct BreathSignal {
  std::vector<signal::TimedSample> samples;
  double sample_rate_hz = 0.0;
  /// Peak |value| of the track entering conditioning. Detrending a flat
  /// or linear track leaves only rounding residue, so the scale is taken
  /// before it; the rate estimator reads a band signal far below this
  /// scale as empty (kResidueFloor).
  double input_scale = 0.0;

  std::vector<double> values() const;
};

/// One track of a batched extraction sweep.
struct ExtractJob {
  std::span<const signal::TimedSample> track;
  double sample_rate_hz = 0.0;
  BreathSignal* out = nullptr;
};

/// Reusable staging for extract_many: per-job conditioned values and
/// filter outputs (all live at once across the batched transform
/// sweeps), the one-job-at-a-time coarse low-pass (every D-th sample of
/// it, and on the full path a masked copy of the job's spectrum), each
/// job's band plan (null on the full path), plus the sweep job arrays.
/// High-water sized — nothing shrinks — so a warm scratch runs any
/// previously-seen batch shape without allocating.
struct ExtractScratch {
  std::vector<std::vector<double>> values;
  std::vector<std::vector<double>> filtered;
  std::vector<signal::cdouble> coarse_spectrum;
  std::vector<double> coarse;
  std::vector<std::shared_ptr<const signal::BandPlan>> band_plans;
  std::vector<signal::RealFftJob> fwd_jobs;
  std::vector<signal::BandMaskJob> mask_jobs;
  std::vector<double> band_lo;
  std::vector<double> band_hi;
  std::vector<unsigned char> active;
};

class BreathExtractor {
 public:
  explicit BreathExtractor(ExtractorConfig config = {});

  /// `track` must be uniformly sampled at `sample_rate_hz` (the fusion
  /// stage guarantees this). `workspace` (optional) is the caller's
  /// reusable FFT workspace: the realtime engine passes one per worker
  /// so the filter's transforms run through cached plans without
  /// per-call allocation; nullptr uses a local throwaway workspace.
  /// Delegates to extract_many with a one-job batch — single and
  /// batched extraction share one code path and produce bit-identical
  /// signals.
  BreathSignal extract(std::span<const signal::TimedSample> track,
                       double sample_rate_hz,
                       signal::FftWorkspace* workspace = nullptr) const;

  /// Batched extraction: conditions every track, runs ONE forward
  /// transform per track into workspace.spectra, and filters those bins
  /// twice — the coarse adaptive-band low-pass (every D-th sample of it,
  /// D = signal::acf_decimation(rate, cutoff), feeds the ACF seed) and
  /// the main band filter — then fills every job's `out`.
  ///
  /// A track whose (N, K) passes signal::BandPlan::preferred, K the
  /// highest bin the cutoff can keep, takes the band path: a direct DFT
  /// of bins 0..K and two band_synthesize calls, the coarse one strided
  /// by D. Any other track takes the full path: one fft_real_many sweep,
  /// the coarse filter masking a copy (read every D-th sample) and the
  /// main filter masking the bins in place (bandlimit_inverse_many).
  /// Either way the output is bit-identical to transforming once per
  /// filter on the same path. Thread-safe for distinct workspaces and
  /// scratches.
  void extract_many(std::span<const ExtractJob> jobs,
                    signal::FftWorkspace& workspace,
                    ExtractScratch& scratch) const;

  const ExtractorConfig& config() const noexcept { return config_; }

 private:
  ExtractorConfig config_;
};

}  // namespace tagbreathe::core
