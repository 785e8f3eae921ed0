// Unit tests: EPC codec (Fig. 9 ID scheme) and channel plans / hopping.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "rfid/channel_plan.hpp"
#include "rfid/epc.hpp"

namespace tagbreathe::rfid {
namespace {

// --- EPC ---------------------------------------------------------------

TEST(Epc, UserTagRoundTrip) {
  const Epc96 epc = Epc96::from_user_tag(0x0123456789ABCDEFULL, 0xDEADBEEF);
  EXPECT_EQ(epc.user_id(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(epc.tag_id(), 0xDEADBEEFu);
}

class EpcRoundTrip
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint32_t>> {
};

TEST_P(EpcRoundTrip, PreservesIds) {
  const auto [user, tag] = GetParam();
  const Epc96 epc = Epc96::from_user_tag(user, tag);
  EXPECT_EQ(epc.user_id(), user);
  EXPECT_EQ(epc.tag_id(), tag);
  // Hex round trip too.
  const auto parsed = Epc96::from_hex(epc.to_hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, epc);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, EpcRoundTrip,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{0, 0},
                      std::pair<std::uint64_t, std::uint32_t>{1, 1},
                      std::pair<std::uint64_t, std::uint32_t>{~0ULL, ~0U},
                      std::pair<std::uint64_t, std::uint32_t>{42, 7},
                      std::pair<std::uint64_t, std::uint32_t>{
                          0x8000000000000000ULL, 0x80000000U}));

TEST(Epc, HexFormatting) {
  const Epc96 epc = Epc96::from_user_tag(0x0102030405060708ULL, 0x090A0B0C);
  EXPECT_EQ(epc.to_hex(), "0102030405060708090a0b0c");
}

TEST(Epc, HexParsingToleratesSeparators) {
  const auto a = Epc96::from_hex("01:02:03:04:05:06:07:08:09:0a:0b:0c");
  const auto b = Epc96::from_hex("0102 0304 0506 0708 090A 0B0C");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(Epc, HexParsingRejectsBadInput) {
  EXPECT_FALSE(Epc96::from_hex("zz").has_value());
  EXPECT_FALSE(Epc96::from_hex("0102").has_value());  // too short
  EXPECT_FALSE(
      Epc96::from_hex("0102030405060708090a0b0c0d").has_value());  // too long
  EXPECT_FALSE(Epc96::from_hex("0102030405060708090a0bxy").has_value());
}

TEST(Epc, HashDistinguishes) {
  Epc96Hash hash;
  const Epc96 a = Epc96::from_user_tag(1, 1);
  const Epc96 b = Epc96::from_user_tag(1, 2);
  const Epc96 c = Epc96::from_user_tag(2, 1);
  EXPECT_NE(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
  EXPECT_EQ(hash(a), hash(Epc96::from_user_tag(1, 1)));
}

TEST(Epc, Ordering) {
  EXPECT_LT(Epc96::from_user_tag(1, 1), Epc96::from_user_tag(1, 2));
  EXPECT_LT(Epc96::from_user_tag(1, 99), Epc96::from_user_tag(2, 0));
}

// --- channel plans ---------------------------------------------------------

TEST(ChannelPlan, PaperPlanMatchesPaper) {
  const auto plan = ChannelPlan::paper_plan();
  EXPECT_EQ(plan.channel_count(), 10u);
  EXPECT_NEAR(plan.dwell_s(), 0.2, 1e-12);
  // All carriers inside the 902-928 UHF band the paper quotes, 500 kHz
  // spaced.
  for (std::size_t i = 0; i < plan.channel_count(); ++i) {
    EXPECT_GT(plan.frequency_hz(i), 902e6);
    EXPECT_LT(plan.frequency_hz(i), 928e6);
    if (i > 0) {
      EXPECT_NEAR(plan.frequency_hz(i) - plan.frequency_hz(i - 1), 0.5e6,
                  1.0);
    }
  }
}

TEST(ChannelPlan, UsPlanHas50Channels) {
  const auto plan = ChannelPlan::us_plan();
  EXPECT_EQ(plan.channel_count(), 50u);
  EXPECT_NEAR(plan.frequency_hz(0), 902.75e6, 1.0);
  EXPECT_NEAR(plan.frequency_hz(49), 927.25e6, 1.0);
}

TEST(ChannelPlan, WavelengthConsistent) {
  const auto plan = ChannelPlan::paper_plan();
  for (std::size_t i = 0; i < plan.channel_count(); ++i)
    EXPECT_NEAR(plan.wavelength_m(i) * plan.frequency_hz(i), 299792458.0,
                1.0);
}

TEST(ChannelPlan, Validation) {
  EXPECT_THROW(ChannelPlan("x", {}, 0.2), std::invalid_argument);
  EXPECT_THROW(ChannelPlan("x", {915e6}, 0.0), std::invalid_argument);
  EXPECT_THROW(ChannelPlan("x", {-1.0}, 0.2), std::invalid_argument);
  const auto plan = ChannelPlan::paper_plan();
  EXPECT_THROW(plan.frequency_hz(10), std::out_of_range);
}

// --- hop schedule -------------------------------------------------------------

TEST(HopSchedule, DwellBoundariesRespected) {
  HopSchedule hops(ChannelPlan::paper_plan(), 3);
  for (double t = 0.0; t < 10.0; t += 0.05) {
    // Channel constant within a dwell.
    const double dwell_start = std::floor(t / 0.2) * 0.2;
    EXPECT_EQ(hops.channel_at(t), hops.channel_at(dwell_start + 1e-6));
  }
}

TEST(HopSchedule, VisitsEveryChannelEachEpoch) {
  HopSchedule hops(ChannelPlan::paper_plan(), 4);
  // One epoch = 10 dwells = 2 s; each channel exactly once.
  std::set<std::size_t> seen;
  for (int d = 0; d < 10; ++d) seen.insert(hops.channel_at(0.2 * d + 0.01));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(HopSchedule, EpochsReshuffle) {
  HopSchedule hops(ChannelPlan::paper_plan(), 5);
  std::vector<std::size_t> epoch0, epoch1;
  for (int d = 0; d < 10; ++d) {
    epoch0.push_back(hops.channel_at(0.2 * d + 0.01));
    epoch1.push_back(hops.channel_at(2.0 + 0.2 * d + 0.01));
  }
  EXPECT_NE(epoch0, epoch1);  // astronomically unlikely to coincide
}

TEST(HopSchedule, DeterministicPerSeed) {
  HopSchedule a(ChannelPlan::paper_plan(), 9);
  HopSchedule b(ChannelPlan::paper_plan(), 9);
  HopSchedule c(ChannelPlan::paper_plan(), 10);
  bool any_diff = false;
  for (double t = 0.0; t < 6.0; t += 0.2) {
    EXPECT_EQ(a.channel_at(t), b.channel_at(t));
    if (a.channel_at(t) != c.channel_at(t)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(HopSchedule, NextHopTimeStrictlyAhead) {
  HopSchedule hops(ChannelPlan::paper_plan(), 11);
  for (double t : {0.0, 0.05, 0.199, 0.2, 1.7}) {
    const double next = hops.next_hop_time(t);
    EXPECT_GT(next, t);
    // Lands on a dwell boundary (robust to fmod's representation edge).
    const double cycles = next / 0.2;
    EXPECT_NEAR(cycles, std::round(cycles), 1e-9);
  }
}

TEST(HopSchedule, NegativeTimeClamps) {
  HopSchedule hops(ChannelPlan::paper_plan(), 12);
  EXPECT_EQ(hops.channel_at(-5.0), hops.channel_at(0.0));
}

}  // namespace
}  // namespace tagbreathe::rfid
