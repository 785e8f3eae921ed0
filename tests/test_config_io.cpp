// Unit tests: INI parser and scenario (de)serialisation.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "byte_mutation.hpp"
#include "common/ini.hpp"
#include "common/rng.hpp"
#include "experiments/scenario_io.hpp"

namespace tagbreathe {
namespace {

using common::IniFile;

// --- ini ---------------------------------------------------------------

TEST(Ini, ParsesSectionsAndValues) {
  std::istringstream in(R"(
# comment
[alpha]
key = value
number = 42   ; trailing comment

[beta]
flag = true
)");
  const IniFile ini = IniFile::parse(in);
  ASSERT_EQ(ini.sections().size(), 2u);
  const auto* alpha = ini.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->get_string("key", ""), "value");
  EXPECT_EQ(alpha->get_int("number", 0), 42);
  EXPECT_EQ(ini.find("beta")->get_string("flag", ""), "true");
  EXPECT_EQ(ini.find("gamma"), nullptr);
}

TEST(Ini, RepeatedSectionsKeepOrder) {
  std::istringstream in("[user]\na = 1\n[user]\na = 2\n");
  const IniFile ini = IniFile::parse(in);
  const auto users = ini.find_all("user");
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0]->get_int("a", 0), 1);
  EXPECT_EQ(users[1]->get_int("a", 0), 2);
}

TEST(Ini, TypedGettersValidate) {
  std::istringstream in("[s]\nnum = 1.5\nbad = xyz\n");
  const IniFile ini = IniFile::parse(in);
  const auto* s = ini.find("s");
  EXPECT_DOUBLE_EQ(s->get_double("num", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(s->get_double("missing", 7.5), 7.5);
  EXPECT_THROW(s->get_double("bad", 0.0), std::runtime_error);
  EXPECT_THROW(s->get_int("num", 0), std::runtime_error);  // trailing .5
}

TEST(Ini, SyntaxErrorsCarryLineNumbers) {
  std::istringstream unterminated("[oops\n");
  try {
    IniFile::parse(unterminated);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  std::istringstream orphan("key = 1\n");
  EXPECT_THROW(IniFile::parse(orphan), std::runtime_error);
  std::istringstream noeq("[s]\njust words\n");
  EXPECT_THROW(IniFile::parse(noeq), std::runtime_error);
}

// --- scenario io -------------------------------------------------------------

TEST(ScenarioIo, DefaultsWhenEmpty) {
  std::istringstream in("");
  const auto cfg = experiments::scenario_from_ini(in);
  EXPECT_DOUBLE_EQ(cfg.distance_m, 4.0);
  EXPECT_EQ(cfg.users.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.users[0].rate_bpm, 10.0);
}

TEST(ScenarioIo, ParsesFullScenario) {
  std::istringstream in(R"(
[scenario]
distance_m = 2.5
tags_per_user = 2
contending_tags = 7
duration_s = 45
seed = 99

[user]
rate_bpm = 14
posture = standing
orientation_deg = 30
apnea = 10:3, 20:4

[user]
schedule = 0:18, 30:12
posture = lying
)");
  const auto cfg = experiments::scenario_from_ini(in);
  EXPECT_DOUBLE_EQ(cfg.distance_m, 2.5);
  EXPECT_EQ(cfg.tags_per_user, 2);
  EXPECT_EQ(cfg.contending_tags, 7);
  EXPECT_EQ(cfg.seed, 99u);
  ASSERT_EQ(cfg.users.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.users[0].rate_bpm, 14.0);
  EXPECT_EQ(cfg.users[0].posture, body::Posture::Standing);
  ASSERT_EQ(cfg.users[0].apneas.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.users[0].apneas[1].start_s, 20.0);
  ASSERT_EQ(cfg.users[1].schedule.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.users[1].schedule[1].rate_bpm, 12.0);
  EXPECT_EQ(cfg.users[1].posture, body::Posture::Lying);
}

TEST(ScenarioIo, RejectsUnknownKeysAndBadValues) {
  std::istringstream typo("[scenario]\ndistancem = 4\n");
  EXPECT_THROW(experiments::scenario_from_ini(typo), std::runtime_error);

  std::istringstream bad_posture("[user]\nposture = floating\n");
  EXPECT_THROW(experiments::scenario_from_ini(bad_posture),
               std::runtime_error);

  std::istringstream bad_pairs("[user]\napnea = 10-3\n");
  EXPECT_THROW(experiments::scenario_from_ini(bad_pairs),
               std::runtime_error);

  // Values that fail Scenario's own validation are also rejected.
  std::istringstream bad_tags("[scenario]\ntags_per_user = 9\n");
  EXPECT_THROW(experiments::scenario_from_ini(bad_tags),
               std::invalid_argument);
  // Counts are bounded before the probe allocates a tag or an antenna.
  std::istringstream many_tags("[scenario]\ncontending_tags = 10001\n");
  EXPECT_THROW(experiments::scenario_from_ini(many_tags),
               std::invalid_argument);
  std::istringstream many_ports("[scenario]\nnum_antennas = 256\n");
  EXPECT_THROW(experiments::scenario_from_ini(many_ports),
               std::invalid_argument);
  // A count beyond int's range is rejected, not wrapped to 1 and 0.
  std::istringstream wrapped_tags("[scenario]\ntags_per_user = 4294967297\n");
  EXPECT_THROW(experiments::scenario_from_ini(wrapped_tags),
               std::runtime_error);
  std::istringstream wrapped_items(
      "[scenario]\ncontending_tags = 4294967296\n");
  EXPECT_THROW(experiments::scenario_from_ini(wrapped_items),
               std::runtime_error);
}

TEST(ScenarioIo, RoundTrips) {
  experiments::ScenarioConfig cfg;
  cfg.distance_m = 3.25;
  cfg.contending_tags = 4;
  cfg.users[0].rate_bpm = 13.0;
  cfg.users[0].apneas = {{30.0, 6.0}};
  experiments::UserSpec second;
  second.schedule = {{0.0, 16.0}, {60.0, 9.0}};
  cfg.users.push_back(second);

  const std::string ini = experiments::scenario_to_ini(cfg);
  std::istringstream in(ini);
  const auto back = experiments::scenario_from_ini(in);
  EXPECT_DOUBLE_EQ(back.distance_m, cfg.distance_m);
  EXPECT_EQ(back.contending_tags, cfg.contending_tags);
  ASSERT_EQ(back.users.size(), 2u);
  EXPECT_DOUBLE_EQ(back.users[0].apneas[0].duration_s, 6.0);
  EXPECT_DOUBLE_EQ(back.users[1].schedule[1].rate_bpm, 9.0);
}

// --- scenario INI fuzz ------------------------------------------------------

TEST(ScenarioIoFuzz, SeededMutationsYieldConfigOrParseError) {
  // Each shipped scenario takes one byte_mutation.hpp mutation per case
  // and goes through the decoder, which parses and validates but never
  // runs the scenario. It must return a config or throw
  // std::runtime_error / std::invalid_argument; nothing else may escape.
  constexpr int kCasesPerFile = 300;
  common::Rng rng(0x5CE7A210ull);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const char* name : {"apnea.ini", "table1_defaults.ini", "ward.ini"}) {
    const std::string path = std::string(TB_SCENARIO_DIR) + "/" + name;
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << path;
    const std::vector<std::uint8_t> base(
        (std::istreambuf_iterator<char>(file)),
        std::istreambuf_iterator<char>());
    ASSERT_FALSE(base.empty()) << path;
    for (int iter = 0; iter < kCasesPerFile; ++iter) {
      std::vector<std::uint8_t> bytes = base;
      testutil::mutate_once(rng, bytes);
      std::istringstream in(std::string(bytes.begin(), bytes.end()));
      try {
        experiments::scenario_from_ini(in);
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " case " << iter << " escaped: " << e.what();
      } catch (...) {
        ADD_FAILURE() << name << " case " << iter << " escaped a non-exception";
      }
    }
  }
  // Both outcomes occur, so the loop reaches past the parser into
  // validation.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace tagbreathe
