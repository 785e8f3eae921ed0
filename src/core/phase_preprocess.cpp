#include "core/phase_preprocess.hpp"

#include <cmath>

#include "common/units.hpp"
#include "signal/simd/kernels.hpp"

namespace tagbreathe::core {

namespace {

/// Eq. 3 scale factor λ/(4π): λ = c/f first, then the 4π divide. The
/// grouping fixes the bit pattern the pinned event-log hashes record.
inline double eq3_scale(double frequency_hz) {
  const double lambda = common::kSpeedOfLight / frequency_hz;
  return lambda / (4.0 * common::kPi);
}

}  // namespace

PhasePreprocessor::PhasePreprocessor(PreprocessConfig config)
    : config_(config) {}

double PhasePreprocessor::effective_gap_s() const noexcept {
  if (!config_.adaptive_gap) return config_.max_same_channel_gap_s;
  // Until the rate estimate settles, be permissive: a fast stream's
  // same-channel neighbours are milliseconds apart regardless.
  if (dt_samples_ < 8) return config_.fallback_gap_s;
  const double rate_hz = ewma_dt_s_ > 0.0 ? 1.0 / ewma_dt_s_ : 0.0;
  // First decisive classification at the threshold itself, then wide
  // hysteresis (x0.5 / x1.5): MAC round structure makes the rate
  // estimate bursty, and flip-flopping between modes mixes crisp and
  // stale chains, which corrupts the track far more than either mode's
  // own weaknesses.
  if (!mode_init_) {
    fast_mode_ = rate_hz >= config_.fast_stream_hz;
    mode_init_ = true;
  }
  const double up = config_.fast_stream_hz * 1.5;
  const double down = config_.fast_stream_hz * 0.5;
  if (fast_mode_) {
    if (rate_hz < down) fast_mode_ = false;
  } else {
    if (rate_hz > up) fast_mode_ = true;
  }
  return fast_mode_ ? config_.max_same_channel_gap_s
                    : config_.fallback_gap_s;
}

bool PhasePreprocessor::pair_gate(const TagRead& read, double& dt_out,
                                  double& dphase_out) {
  ++stats_.reads_in;

  // Update the stream-rate tracker (all channels).
  if (has_last_time_) {
    const double dt_any = read.time_s - last_read_time_s_;
    if (dt_any > 0.0) {
      constexpr double kAlpha = 0.1;
      ewma_dt_s_ = dt_samples_ == 0
                       ? dt_any
                       : (1.0 - kAlpha) * ewma_dt_s_ + kAlpha * dt_any;
      ++dt_samples_;
    }
  }
  last_read_time_s_ = read.time_s;
  has_last_time_ = true;

  // SoA channel lookup: grow to the channel index on first sight (the
  // FCC hop plan tops out at 50 channels, so the arrays stay tiny and
  // the growth is a one-time cost per instance).
  const std::size_t ch = read.channel_index;
  if (ch >= chan_epoch_.size()) {
    chan_epoch_.resize(ch + 1, 0);
    chan_time_.resize(ch + 1, 0.0);
    chan_phase_.resize(ch + 1, 0.0);
  }
  const bool seen = chan_epoch_[ch] == epoch_;
  const double prev_time = chan_time_[ch];
  const double prev_phase = chan_phase_[ch];
  chan_epoch_[ch] = epoch_;
  chan_time_[ch] = read.time_s;
  chan_phase_[ch] = read.phase_rad;
  if (!seen) {
    ++stats_.first_in_channel;
    return false;
  }

  const double dt = read.time_s - prev_time;
  if (dt <= 0.0) return false;
  const double gap_limit = effective_gap_s();
  if (gap_limit > 0.0 && dt > gap_limit) {
    ++stats_.dropped_gap;
    return false;
  }

  dt_out = dt;
  dphase_out = read.phase_rad - prev_phase;
  return true;
}

void PhasePreprocessor::process_into(std::span<const TagRead> reads,
                                     std::vector<signal::TimedSample>& out) {
  out.clear();

  // Pass 1 (serial, stateful): run the gate stage for every read and
  // stage the surviving pairs into flat arrays. All per-read state
  // evolution (EWMA, hysteresis, channel table) happens here, in read
  // order, and carries over to the next call.
  stage_time_.clear();
  stage_dt_.clear();
  stage_dphase_.clear();
  stage_scale_.clear();
  for (const TagRead& r : reads) {
    double dt = 0.0;
    double dphase = 0.0;
    if (!pair_gate(r, dt, dphase)) continue;
    stage_time_.push_back(r.time_s);
    stage_dt_.push_back(dt);
    stage_dphase_.push_back(dphase);
    stage_scale_.push_back(eq3_scale(r.frequency_hz));
  }

  // Pass 2 (vector): Eq. 3 wrap + scale across the whole stream in one
  // dispatched kernel sweep.
  const std::size_t n = stage_dphase_.size();
  if (stage_delta_.size() < n) stage_delta_.resize(n);
  signal::simd::kernels().phase_deltas(stage_dphase_.data(),
                                       stage_scale_.data(),
                                       stage_delta_.data(), n);

  // Pass 3 (scalar): physical gates and emission, per pair.
  if (out.capacity() < n) out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double delta_d = stage_delta_[i];
    const double dt = stage_dt_[i];
    if (config_.max_speed_mps > 0.0 &&
        std::abs(delta_d) / dt > config_.max_speed_mps) {
      ++stats_.dropped_outlier;
      continue;
    }
    if (config_.spike_floor_m > 0.0 &&
        std::abs(delta_d) >
            config_.spike_floor_m + config_.spike_speed_mps * dt) {
      ++stats_.dropped_spike;
      continue;
    }
    out.push_back(signal::TimedSample{stage_time_[i], delta_d});
    ++stats_.deltas_out;
  }
}

std::vector<signal::TimedSample> PhasePreprocessor::process(
    std::span<const TagRead> reads) {
  std::vector<signal::TimedSample> out;
  process_into(reads, out);
  return out;
}

void PhasePreprocessor::reset() noexcept {
  // O(1): channel entries die by epoch mismatch, buffers keep capacity.
  ++epoch_;
  if (epoch_ == 0) {  // wraparound: sweep once so stale stamps can't match
    chan_epoch_.assign(chan_epoch_.size(), 0);
    epoch_ = 1;
  }
  stats_ = PreprocessStats{};
  ewma_dt_s_ = 0.0;
  dt_samples_ = 0;
  last_read_time_s_ = 0.0;
  has_last_time_ = false;
  fast_mode_ = false;
  mode_init_ = false;
}

void PhasePreprocessor::reconfigure(const PreprocessConfig& config) noexcept {
  config_ = config;
  reset();
}

std::vector<signal::TimedSample> integrate_displacement(
    std::span<const signal::TimedSample> deltas) {
  return integrate_displacement(deltas, 0.0);
}

std::vector<signal::TimedSample> integrate_displacement(
    std::span<const signal::TimedSample> deltas, double reset_gap_s) {
  std::vector<signal::TimedSample> track;
  track.reserve(deltas.size());
  double acc = 0.0;
  bool has_prev = false;
  double prev_t = 0.0;
  for (const signal::TimedSample& d : deltas) {
    const bool spans_gap = reset_gap_s > 0.0 && has_prev &&
                           d.time_s - prev_t > reset_gap_s;
    if (!spans_gap) acc += d.value;  // gap-spanning motion is discarded
    track.push_back(signal::TimedSample{d.time_s, acc});
    prev_t = d.time_s;
    has_prev = true;
  }
  return track;
}

}  // namespace tagbreathe::core
