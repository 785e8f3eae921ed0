#include "experiments/scenario_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/ini.hpp"

namespace tagbreathe::experiments {

namespace {

body::Posture parse_posture(const std::string& name) {
  if (name == "sitting") return body::Posture::Sitting;
  if (name == "standing") return body::Posture::Standing;
  if (name == "lying") return body::Posture::Lying;
  throw std::runtime_error("scenario: unknown posture '" + name +
                           "' (sitting|standing|lying)");
}

/// Parses "a:b, c:d" pair lists (apnea start:duration, schedule
/// start:rate).
std::vector<std::pair<double, double>> parse_pairs(const std::string& text,
                                                   const char* what) {
  std::vector<std::pair<double, double>> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error(std::string("scenario: ") + what +
                               " entries must be 'a:b', got '" + item + "'");
    try {
      out.emplace_back(std::stod(item.substr(0, colon)),
                       std::stod(item.substr(colon + 1)));
    } catch (const std::exception&) {
      throw std::runtime_error(std::string("scenario: bad number in ") +
                               what + ": '" + item + "'");
    }
  }
  return out;
}

void check_known_keys(const common::IniSection& section,
                      std::initializer_list<const char*> known) {
  for (const auto& [key, value] : section.values) {
    bool ok = false;
    for (const char* k : known)
      if (key == k) ok = true;
    if (!ok)
      throw std::runtime_error("scenario: unknown key '" + key +
                               "' in [" + section.name + "]");
  }
}

// get_int narrowed to int: a value outside int's range would wrap
// (4294967297 -> 1), so it is rejected before the cast.
int get_int_in_range(const common::IniSection& section, const char* key,
                     int fallback) {
  const long value = section.get_int(key, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    throw std::runtime_error("scenario: '" + std::string(key) + "' in [" +
                             section.name + "] is out of range");
  return static_cast<int>(value);
}

}  // namespace

ScenarioConfig scenario_from_ini(std::istream& in) {
  const common::IniFile ini = common::IniFile::parse(in);
  ScenarioConfig cfg;

  if (const auto* s = ini.find("scenario")) {
    check_known_keys(*s, {"distance_m", "tags_per_user", "contending_tags",
                          "tx_power_dbm", "num_antennas",
                          "antenna_height_m", "duration_s", "seed"});
    cfg.distance_m = s->get_double("distance_m", cfg.distance_m);
    cfg.tags_per_user =
        get_int_in_range(*s, "tags_per_user", cfg.tags_per_user);
    cfg.contending_tags =
        get_int_in_range(*s, "contending_tags", cfg.contending_tags);
    cfg.tx_power_dbm = s->get_double("tx_power_dbm", cfg.tx_power_dbm);
    cfg.num_antennas = get_int_in_range(*s, "num_antennas", cfg.num_antennas);
    cfg.antenna_height_m =
        s->get_double("antenna_height_m", cfg.antenna_height_m);
    cfg.duration_s = s->get_double("duration_s", cfg.duration_s);
    cfg.seed = static_cast<std::uint64_t>(
        s->get_int("seed", static_cast<long>(cfg.seed)));
  }

  const auto users = ini.find_all("user");
  if (!users.empty()) cfg.users.clear();
  for (const auto* u : users) {
    check_known_keys(*u, {"rate_bpm", "posture", "orientation_deg",
                          "chest_style", "side_offset_m", "apnea",
                          "schedule"});
    UserSpec spec;
    spec.rate_bpm = u->get_double("rate_bpm", spec.rate_bpm);
    spec.posture = parse_posture(u->get_string("posture", "sitting"));
    spec.orientation_deg =
        u->get_double("orientation_deg", spec.orientation_deg);
    spec.chest_style = u->get_double("chest_style", spec.chest_style);
    spec.side_offset_m = u->get_double("side_offset_m", spec.side_offset_m);
    if (const auto apnea = u->get("apnea")) {
      for (const auto& [start, duration] : parse_pairs(*apnea, "apnea"))
        spec.apneas.push_back(body::ApneaEvent{start, duration});
    }
    if (const auto schedule = u->get("schedule")) {
      for (const auto& [start, rate] : parse_pairs(*schedule, "schedule"))
        spec.schedule.push_back(body::RateSegment{start, rate});
    }
    cfg.users.push_back(std::move(spec));
  }
  // Validate by constructing once (Scenario's constructor checks).
  Scenario probe(cfg);
  return cfg;
}

ScenarioConfig scenario_from_ini_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario: cannot open " + path);
  return scenario_from_ini(in);
}

std::string scenario_to_ini(const ScenarioConfig& config) {
  std::ostringstream out;
  out << "[scenario]\n";
  out << "distance_m = " << config.distance_m << "\n";
  out << "tags_per_user = " << config.tags_per_user << "\n";
  out << "contending_tags = " << config.contending_tags << "\n";
  out << "tx_power_dbm = " << config.tx_power_dbm << "\n";
  out << "num_antennas = " << config.num_antennas << "\n";
  out << "antenna_height_m = " << config.antenna_height_m << "\n";
  out << "duration_s = " << config.duration_s << "\n";
  out << "seed = " << config.seed << "\n";
  for (const UserSpec& u : config.users) {
    out << "\n[user]\n";
    out << "rate_bpm = " << u.rate_bpm << "\n";
    out << "posture = " << body::posture_name(u.posture) << "\n";
    out << "orientation_deg = " << u.orientation_deg << "\n";
    out << "chest_style = " << u.chest_style << "\n";
    out << "side_offset_m = " << u.side_offset_m << "\n";
    if (!u.apneas.empty()) {
      out << "apnea = ";
      for (std::size_t i = 0; i < u.apneas.size(); ++i) {
        if (i) out << ", ";
        out << u.apneas[i].start_s << ":" << u.apneas[i].duration_s;
      }
      out << "\n";
    }
    if (!u.schedule.empty()) {
      out << "schedule = ";
      for (std::size_t i = 0; i < u.schedule.size(); ++i) {
        if (i) out << ", ";
        out << u.schedule[i].start_s << ":" << u.schedule[i].rate_bpm;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace tagbreathe::experiments
