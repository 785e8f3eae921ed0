#include "core/breath_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "signal/filters.hpp"
#include "signal/fir.hpp"
#include "signal/spectrum.hpp"

namespace tagbreathe::core {

const char* filter_kind_name(FilterKind kind) noexcept {
  switch (kind) {
    case FilterKind::FftLowpass: return "fft-lowpass";
    case FilterKind::FirLowpass: return "fir-lowpass";
  }
  return "?";
}

std::vector<double> BreathSignal::values() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.value);
  return out;
}

BreathExtractor::BreathExtractor(ExtractorConfig config) : config_(config) {
  if (config_.cutoff_hz <= 0.0)
    throw std::invalid_argument("BreathExtractor: cutoff must be positive");
  if (config_.low_cut_hz < 0.0 || config_.low_cut_hz >= config_.cutoff_hz)
    throw std::invalid_argument(
        "BreathExtractor: low cut must be in [0, cutoff)");
}

BreathSignal BreathExtractor::extract(
    std::span<const signal::TimedSample> track, double sample_rate_hz,
    signal::FftWorkspace* workspace) const {
  BreathSignal out;
  signal::FftWorkspace local_ws;
  signal::FftWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  ExtractScratch scratch;  // staging is throwaway; the plans in `ws` stay warm
  const ExtractJob job{track, sample_rate_hz, &out};
  extract_many({&job, 1}, ws, scratch);
  return out;
}

void BreathExtractor::extract_many(std::span<const ExtractJob> jobs,
                                   signal::FftWorkspace& ws,
                                   ExtractScratch& scratch) const {
  const std::size_t count = jobs.size();
  if (count == 0) return;
  for (const ExtractJob& job : jobs) {
    if (job.sample_rate_hz <= 0.0)
      throw std::invalid_argument("BreathExtractor: bad sample rate");
  }

  // High-water staging (outer arrays never shrink; inner buffers keep
  // their capacity across assigns).
  if (scratch.values.size() < count) {
    scratch.values.resize(count);
    scratch.filtered.resize(count);
  }
  scratch.band_lo.assign(count, config_.low_cut_hz);
  scratch.band_hi.assign(count, config_.cutoff_hz);
  scratch.active.assign(count, 1);
  scratch.band_plans.assign(count, nullptr);

  // Stage 1 (per job): condition the track values.
  for (std::size_t j = 0; j < count; ++j) {
    const ExtractJob& job = jobs[j];
    BreathSignal& out = *job.out;
    out.samples.clear();
    out.sample_rate_hz = job.sample_rate_hz;
    out.input_scale = 0.0;
    for (const signal::TimedSample& s : job.track)
      out.input_scale = std::max(out.input_scale, std::abs(s.value));
    if (job.track.size() < 4) {
      scratch.active[j] = 0;
      continue;
    }
    std::vector<double>& values = scratch.values[j];
    values.resize(job.track.size());
    for (std::size_t i = 0; i < job.track.size(); ++i)
      values[i] = job.track[i].value;
    if (config_.detrend) signal::detrend_linear(values);
  }

  // Stage 2: ONE forward transform per track. Both FFT filters below
  // read these bins, so the forward transform runs once per track. Band
  // tracks keep bins 0..K, the only ones a filter under the cutoff can
  // keep; the rest run one full sweep.
  const bool fft_main = config_.filter == FilterKind::FftLowpass;
  if (config_.adaptive_band || fft_main) {
    if (ws.spectra.size() < count) ws.spectra.resize(count);
    scratch.fwd_jobs.clear();
    std::shared_ptr<const signal::BandPlan> plan;
    for (std::size_t j = 0; j < count; ++j) {
      if (scratch.active[j] == 0) continue;
      const std::vector<double>& values = scratch.values[j];
      const std::size_t n = values.size();
      const std::size_t top =
          signal::band_top_bin(n, jobs[j].sample_rate_hz, config_.cutoff_hz);
      if (!signal::BandPlan::preferred(n, top)) {
        scratch.fwd_jobs.push_back(signal::RealFftJob{values, &ws.spectra[j]});
        continue;
      }
      if (plan == nullptr || plan->size() != n || plan->max_bin() != top)
        plan = signal::BandPlan::get(n, top);
      ws.spectra[j].resize(top + 1);
      plan->forward(values, ws.spectra[j], ws.scratch);
      scratch.band_plans[j] = plan;
    }
    signal::fft_real_many(scratch.fwd_jobs, ws.scratch);
  }

  // Stage 3: effective pass band — the configured [low_cut, cutoff],
  // optionally narrowed around the located fundamental. Per job: every
  // D-th sample of the coarse low-pass of the track, then the ACF seed
  // over them.
  if (config_.adaptive_band) {
    const double floor_hz =
        std::max(config_.low_cut_hz, config_.peak_search_floor_hz);
    for (std::size_t j = 0; j < count; ++j) {
      if (scratch.active[j] == 0) continue;
      const double rate = jobs[j].sample_rate_hz;
      const std::size_t stride =
          signal::acf_decimation(rate, config_.cutoff_hz);
      const std::vector<signal::cdouble>& spectrum = ws.spectra[j];
      if (scratch.band_plans[j] != nullptr) {
        signal::band_synthesize(*scratch.band_plans[j], spectrum, rate,
                                signal::kDcRejectHz, config_.cutoff_hz,
                                scratch.coarse, ws, stride);
      } else {
        scratch.coarse_spectrum.assign(spectrum.begin(), spectrum.end());
        const signal::BandMaskJob coarse{&scratch.coarse_spectrum, rate,
                                         signal::kDcRejectHz,
                                         config_.cutoff_hz, &scratch.coarse};
        signal::bandlimit_inverse_many({&coarse, 1}, ws);
        std::vector<double>& c = scratch.coarse;
        const std::size_t kept = (c.size() + stride - 1) / stride;
        for (std::size_t i = 1; i < kept; ++i) c[i] = c[i * stride];
        c.resize(kept);
      }
      // Seed the band from the autocorrelation fundamental of the
      // coarse-low-passed track: the ACF pools the fundamental and its
      // harmonics at the true period and tolerates the track's mixed
      // white + random-walk noise far better than spectral peak-picking.
      const double f0 = signal::autocorrelation_fundamental(
          scratch.coarse, rate, stride, floor_hz, config_.cutoff_hz, ws);
      if (f0 > 0.0) {
        double lo = std::max(scratch.band_lo[j], config_.adaptive_lo_frac * f0);
        double hi = std::min(scratch.band_hi[j], config_.adaptive_hi_frac * f0);
        if (hi <= lo) {  // degenerate: fall back to full band
          lo = config_.low_cut_hz;
          hi = config_.cutoff_hz;
        }
        scratch.band_lo[j] = lo;
        scratch.band_hi[j] = hi;
      }
    }
  }

  // Stage 4: the main filter.
  switch (config_.filter) {
    case FilterKind::FftLowpass: {
      // The stage-2 bins, masked and inverted: band tracks one at a time,
      // the rest in one batched sweep. A zero low cut becomes the DC
      // reject (kDcRejectHz), so the paper's filter drops the DC bin.
      scratch.mask_jobs.clear();
      for (std::size_t j = 0; j < count; ++j) {
        if (scratch.active[j] == 0) continue;
        const double f_lo = scratch.band_lo[j] > 0.0 ? scratch.band_lo[j]
                                                     : signal::kDcRejectHz;
        if (scratch.band_plans[j] != nullptr) {
          signal::band_synthesize(*scratch.band_plans[j], ws.spectra[j],
                                  jobs[j].sample_rate_hz, f_lo,
                                  scratch.band_hi[j], scratch.filtered[j], ws);
          continue;
        }
        scratch.mask_jobs.push_back(signal::BandMaskJob{
            &ws.spectra[j], jobs[j].sample_rate_hz, f_lo, scratch.band_hi[j],
            &scratch.filtered[j]});
      }
      signal::bandlimit_inverse_many(scratch.mask_jobs, ws);
      break;
    }
    case FilterKind::FirLowpass: {
      for (std::size_t j = 0; j < count; ++j) {
        if (scratch.active[j] == 0) continue;
        const ExtractJob& job = jobs[j];
        // Nyquist guard: with very slow fused streams the requested
        // cutoff may not fit; clamp into the valid design range.
        const double nyquist = job.sample_rate_hz / 2.0;
        const double cutoff = std::min(scratch.band_hi[j], 0.9 * nyquist);
        std::size_t taps = signal::suggest_num_taps(config_.fir_transition_hz,
                                                    job.sample_rate_hz);
        // Keep the kernel shorter than the window (filtfilt needs room).
        const std::size_t max_taps =
            job.track.size() % 2 == 0 ? job.track.size() - 1
                                      : job.track.size();
        if (taps > max_taps)
          taps = max_taps % 2 == 0 ? max_taps - 1 : max_taps;
        if (taps < 3) {
          scratch.active[j] = 0;  // too short: empty signal, like single
          continue;
        }
        const auto kernel =
            scratch.band_lo[j] > 0.0
                ? signal::design_bandpass(scratch.band_lo[j], cutoff,
                                          job.sample_rate_hz, taps)
                : signal::design_lowpass(cutoff, job.sample_rate_hz, taps);
        scratch.filtered[j] = signal::filtfilt(scratch.values[j], kernel);
        // The FIR band-pass does not remove DC exactly when low_cut = 0;
        // subtract the mean for a symmetric zero-crossing signal.
        common::remove_mean(scratch.filtered[j]);
      }
      break;
    }
  }

  // Stage 5 (per job): emit the filtered samples on the track's grid.
  for (std::size_t j = 0; j < count; ++j) {
    if (scratch.active[j] == 0) continue;
    const ExtractJob& job = jobs[j];
    BreathSignal& out = *job.out;
    const std::vector<double>& filtered = scratch.filtered[j];
    out.samples.reserve(job.track.size());
    for (std::size_t i = 0; i < job.track.size(); ++i)
      out.samples.push_back(
          signal::TimedSample{job.track[i].time_s, filtered[i]});
  }
}

}  // namespace tagbreathe::core
