#include "experiments/scenario.hpp"

#include <stdexcept>

#include "common/units.hpp"

namespace tagbreathe::experiments {

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  if (config_.users.empty())
    throw std::invalid_argument("Scenario: need at least one user");
  if (config_.tags_per_user < 1 || config_.tags_per_user > 3)
    throw std::invalid_argument("Scenario: tags per user in [1, 3]");
  // Bounded before anything is allocated: a scenario file asking for
  // billions of tags must fail to parse, not exhaust memory.
  if (config_.contending_tags < 0 || config_.contending_tags > 10000)
    throw std::invalid_argument("Scenario: contending tags in [0, 10000]");
  if (config_.num_antennas < 1 || config_.num_antennas > 255)
    throw std::invalid_argument("Scenario: antennas in [1, 255]");

  // Subjects sit side by side at the configured distance, facing the
  // antenna (plus their individual orientation offset).
  for (std::size_t u = 0; u < config_.users.size(); ++u) {
    const UserSpec& spec = config_.users[u];
    body::SubjectConfig sc;
    sc.user_id = u + 1;
    const double side = spec.side_offset_m != 0.0
                            ? spec.side_offset_m
                            : 0.8 * static_cast<double>(u);
    sc.position = {config_.distance_m, side, 0.0};
    sc.heading_rad =
        common::kPi + common::deg_to_rad(spec.orientation_deg);
    sc.posture = spec.posture;
    sc.chest_style = spec.chest_style;
    sc.sway_seed = config_.seed * 131 + u;

    body::MetronomeSchedule schedule =
        spec.schedule.empty() ? body::MetronomeSchedule(spec.rate_bpm)
                              : body::MetronomeSchedule(spec.schedule);
    subjects_.push_back(std::make_unique<body::Subject>(
        sc, body::BreathingModel(std::move(schedule), body::BreathShape{},
                                 spec.apneas)));
  }

  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  const auto& sites = body::Subject::all_sites();
  for (const auto& subject : subjects_) {
    for (int i = 0; i < config_.tags_per_user; ++i) {
      tags.push_back(std::make_unique<rfid::BodyTag>(
          rfid::Epc96::from_user_tag(subject->user_id(),
                                     static_cast<std::uint32_t>(i + 1)),
          subject.get(), sites[static_cast<std::size_t>(i) % sites.size()]));
    }
  }
  // Item-labelling tags scattered through the room (Fig. 14 workload):
  // on shelves and furniture within communication range.
  for (int i = 0; i < config_.contending_tags; ++i) {
    const double x = 1.0 + 0.12 * i;
    const double y = (i % 2 == 0) ? 1.5 : -1.2;
    const double z = 0.5 + 0.07 * (i % 7);
    tags.push_back(std::make_unique<rfid::StaticTag>(
        rfid::Epc96::from_user_tag(0xFFFFFFFFULL,
                                   static_cast<std::uint32_t>(i + 1)),
        common::Vec3{x, y, z}));
  }

  rfid::ReaderConfig rc;
  rc.plan = config_.us_channel_plan ? rfid::ChannelPlan::us_plan()
                                    : rfid::ChannelPlan::paper_plan();
  if (config_.select_monitoring_only) {
    const std::uint64_t max_user = config_.users.size();
    rc.select_filter = [max_user](const rfid::Epc96& epc) {
      const std::uint64_t user = epc.user_id();
      return user >= 1 && user <= max_user;
    };
  }
  rc.link.tx_power_dbm = config_.tx_power_dbm;
  rc.seed = config_.seed * 7919 + 13;
  rc.hop_seed = config_.seed * 31 + 5;
  rc.antennas.clear();
  for (int a = 0; a < config_.num_antennas; ++a) {
    rfid::Antenna ant;
    ant.port = static_cast<std::uint8_t>(a + 1);
    // Antennas spread laterally to cover side-by-side users.
    ant.position = {0.0, 1.2 * static_cast<double>(a),
                    config_.antenna_height_m};
    rc.antennas.push_back(ant);
  }
  reader_ = std::make_unique<rfid::ReaderSim>(rc, std::move(tags));
}

core::ReadStream Scenario::run() { return reader_->run(config_.duration_s); }

double Scenario::true_rate_bpm(std::size_t user_index) const {
  const auto& model = subjects_.at(user_index)->breathing();
  return model.schedule().mean_rate_bpm(0.0, config_.duration_s);
}

}  // namespace tagbreathe::experiments
