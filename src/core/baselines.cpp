#include "core/baselines.hpp"

#include <algorithm>

#include "core/demux.hpp"

namespace tagbreathe::core {

const char* baseline_kind_name(BaselineKind kind) noexcept {
  switch (kind) {
    case BaselineKind::Rssi: return "rssi";
    case BaselineKind::Doppler: return "doppler";
  }
  return "?";
}

namespace {

/// Builds the baseline's raw series from the busiest stream of a user.
std::vector<signal::TimedSample> raw_series(const std::vector<TagRead>& reads,
                                            BaselineKind kind) {
  std::vector<signal::TimedSample> out;
  out.reserve(reads.size());
  switch (kind) {
    case BaselineKind::Rssi:
      for (const TagRead& r : reads)
        out.push_back(signal::TimedSample{r.time_s, r.rssi_dbm});
      break;
    case BaselineKind::Doppler: {
      // Doppler is a radial-velocity estimate: v = -f·λ/2. Integrate it
      // into a displacement proxy (trapezoid rule).
      double disp = 0.0;
      double prev_t = 0.0, prev_v = 0.0;
      bool have_prev = false;
      for (const TagRead& r : reads) {
        const double lambda = 2.998e8 / r.frequency_hz;
        const double v = -r.doppler_hz * lambda / 2.0;
        if (have_prev) {
          const double dt = r.time_s - prev_t;
          if (dt > 0.0 && dt < 1.0) disp += 0.5 * (v + prev_v) * dt;
        }
        out.push_back(signal::TimedSample{r.time_s, disp});
        prev_t = r.time_s;
        prev_v = v;
        have_prev = true;
      }
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<BaselineResult> analyze_baseline(std::span<const TagRead> reads,
                                             const BaselineConfig& config) {
  std::vector<BaselineResult> out;
  if (reads.empty()) return out;

  StreamDemux demux;
  demux.add(reads);

  for (std::uint64_t user : demux.users()) {
    BaselineResult result;
    result.user_id = user;

    // Use the busiest single stream: RSSI offsets differ per tag and per
    // antenna, so cross-stream mixing would corrupt the series.
    const auto streams = demux.streams_for_user(user);
    const auto busiest = std::max_element(
        streams.begin(), streams.end(),
        [](const std::vector<TagRead>* a, const std::vector<TagRead>* b) {
          return a->size() < b->size();
        });
    if (busiest == streams.end() || (*busiest)->size() < 8) {
      out.push_back(result);
      continue;
    }
    result.reads_used = (*busiest)->size();

    const auto raw = raw_series(**busiest, config.kind);
    const auto uniform =
        signal::resample_uniform(raw, config.resample_hz, config.max_gap_s);
    if (uniform.size() < 8) {
      out.push_back(result);
      continue;
    }

    const BreathExtractor extractor(config.extractor);
    result.breath = extractor.extract(uniform, config.resample_hz);

    const ZeroCrossingRateEstimator estimator(config.rate);
    const RateEstimate est = estimator.estimate(result.breath);
    result.rate_bpm = est.rate_bpm;
    result.reliable = est.reliable;
    out.push_back(result);
  }
  return out;
}

}  // namespace tagbreathe::core
