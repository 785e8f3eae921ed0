#include "core/antenna_selector.hpp"

#include <algorithm>

namespace tagbreathe::core {

std::vector<AntennaQuality> score_antennas(
    std::span<const std::vector<TagRead>* const> streams, double window_s,
    const AntennaSelectorConfig& config) {
  // Accumulators ascending by antenna id. A demux stream has one
  // antenna, so the table is searched once per run of equal ids rather
  // than once per read; each antenna still sums its reads in stream
  // order.
  struct Accum {
    std::uint8_t antenna = 0;
    std::size_t reads = 0;
    double rssi_sum = 0.0;
  };
  std::vector<Accum> by_antenna;
  for (const auto* stream : streams) {
    Accum* acc = nullptr;
    for (const TagRead& r : *stream) {
      if (acc == nullptr || acc->antenna != r.antenna_id) {
        auto it = std::lower_bound(
            by_antenna.begin(), by_antenna.end(), r.antenna_id,
            [](const Accum& a, std::uint8_t id) { return a.antenna < id; });
        if (it == by_antenna.end() || it->antenna != r.antenna_id)
          it = by_antenna.insert(it, Accum{r.antenna_id});
        acc = &*it;
      }
      ++acc->reads;
      acc->rssi_sum += r.rssi_dbm;
    }
  }

  std::vector<AntennaQuality> out;
  out.reserve(by_antenna.size());
  for (const Accum& acc : by_antenna) {
    AntennaQuality q;
    q.antenna_id = acc.antenna;
    q.read_rate_hz =
        window_s > 0.0 ? static_cast<double>(acc.reads) / window_s : 0.0;
    q.mean_rssi_dbm =
        acc.reads > 0 ? acc.rssi_sum / static_cast<double>(acc.reads) : -120.0;

    const double rate_norm =
        config.rate_ceil_hz > 0.0
            ? std::clamp(q.read_rate_hz / config.rate_ceil_hz, 0.0, 1.0)
            : 0.0;
    const double rssi_span = config.rssi_ceil_dbm - config.rssi_floor_dbm;
    const double rssi_norm =
        rssi_span > 0.0
            ? std::clamp((q.mean_rssi_dbm - config.rssi_floor_dbm) / rssi_span,
                         0.0, 1.0)
            : 0.0;
    q.score = config.rate_weight * rate_norm + config.rssi_weight * rssi_norm;
    out.push_back(q);
  }
  // Best score first; an exact tie goes to the lower antenna id, so
  // the choice never rests on how std::sort orders equal elements.
  std::sort(out.begin(), out.end(),
            [](const AntennaQuality& a, const AntennaQuality& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.antenna_id < b.antenna_id;
            });
  return out;
}

}  // namespace tagbreathe::core
