// Antenna selection (Sec. IV-D.3).
//
// With several round-robin antennas covering the room, each user is seen
// best by one of them. TagBreathe scores each antenna's data quality for
// a user — read rate and received signal strength — and extracts the
// breath signal from the optimal antenna's streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace tagbreathe::core {

struct AntennaQuality {
  std::uint8_t antenna_id = 0;
  double read_rate_hz = 0.0;  // user's total low-level data rate via port
  double mean_rssi_dbm = -120.0;
  double score = 0.0;
};

struct AntennaSelectorConfig {
  /// Score = rate_weight * normalised rate + rssi_weight * normalised
  /// RSSI. Rate dominates: a strong but rarely-read stream cannot carry
  /// a breathing signal.
  double rate_weight = 0.7;
  double rssi_weight = 0.3;
  /// RSSI normalisation anchors [dBm]: score 0 at floor, 1 at ceil.
  double rssi_floor_dbm = -80.0;
  double rssi_ceil_dbm = -40.0;
  /// Rate normalisation anchor [Hz]: rates at/above this score 1.
  double rate_ceil_hz = 60.0;
};

/// Scores every antenna that reported reads for a user. `streams` are the
/// user's per-(tag, antenna) read vectors; `window_s` is the observation
/// span used to convert counts into rates.
std::vector<AntennaQuality> score_antennas(
    std::span<const std::vector<TagRead>* const> streams, double window_s,
    const AntennaSelectorConfig& config = {});

}  // namespace tagbreathe::core
