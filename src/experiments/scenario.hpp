// Experiment scenarios mirroring Table I of the paper.
//
// A Scenario owns the subjects and builds the tag population + reader
// for one trial. Defaults are the paper's defaults: 10-channel hopping,
// 30 dBm, 4 m, facing, 1 user x 3 tags, 10 bpm, sitting, LOS.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "body/subject.hpp"
#include "rfid/reader.hpp"

namespace tagbreathe::experiments {

struct UserSpec {
  double rate_bpm = 10.0;                      // Table I default
  body::Posture posture = body::Posture::Sitting;
  double orientation_deg = 0.0;                // 0 = facing the antenna
  double chest_style = 0.5;
  /// Lateral offset from the first user's seat [m] (users sit side by
  /// side in the multi-user experiments).
  double side_offset_m = 0.0;
  /// Apnea episodes (extension scenarios).
  std::vector<body::ApneaEvent> apneas;
  /// Optional piecewise rate schedule; overrides rate_bpm when nonempty.
  std::vector<body::RateSegment> schedule;
};

struct ScenarioConfig {
  double distance_m = 4.0;       // Table I default
  int tags_per_user = 3;         // Table I default
  std::vector<UserSpec> users{UserSpec{}};
  int contending_tags = 0;       // item-labelling tags (Fig. 14), <= 10000
  double tx_power_dbm = 30.0;    // Table I default
  int num_antennas = 1;          // reader ports 1..255
  /// Antenna mounting height [m] (paper: ~1 m above ground). Overhead
  /// mounting (e.g. above a crib) uses larger values.
  double antenna_height_m = 1.0;
  /// Regulatory channel plan: false = the paper's 10-channel plan,
  /// true = FCC 50-channel.
  bool us_channel_plan = false;
  /// Issue a Gen2 SELECT so only the monitoring tags are inventoried;
  /// contending item tags stop costing air time (ablation for Fig. 14).
  bool select_monitoring_only = false;
  double duration_s = 120.0;     // "each experiment lasts two minutes"
  std::uint64_t seed = 1;
};

/// A fully built trial: subjects (owned) + a ready reader simulator.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  /// Runs the trial and returns the collected low-level reads.
  core::ReadStream run();

  rfid::ReaderSim& reader() noexcept { return *reader_; }
  const ScenarioConfig& config() const noexcept { return config_; }

  /// Ground-truth mean commanded rate for a user over the trial.
  double true_rate_bpm(std::size_t user_index) const;

  const body::Subject& subject(std::size_t user_index) const {
    return *subjects_.at(user_index);
  }

 private:
  ScenarioConfig config_;
  std::vector<std::unique_ptr<body::Subject>> subjects_;
  std::unique_ptr<rfid::ReaderSim> reader_;
};

}  // namespace tagbreathe::experiments
