// Unit tests: common substrate (units, rng, stats, ring buffer, csv,
// table, geometry).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/csv.hpp"
#include "common/geometry.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace tagbreathe::common {
namespace {

// --- units -------------------------------------------------------------

TEST(Units, DbmWattsRoundTrip) {
  for (double dbm : {-80.0, -30.0, 0.0, 10.0, 30.0}) {
    EXPECT_NEAR(watts_to_dbm(dbm_to_watts(dbm)), dbm, 1e-9);
  }
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);   // 30 dBm = 1 W
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);   // 0 dBm = 1 mW
}

TEST(Units, DbLinear) {
  EXPECT_NEAR(db_to_linear(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-9);
  EXPECT_NEAR(linear_to_db(db_to_linear(-7.5)), -7.5, 1e-9);
}

TEST(Units, BpmHz) {
  EXPECT_DOUBLE_EQ(bpm_to_hz(60.0), 1.0);
  EXPECT_DOUBLE_EQ(hz_to_bpm(0.67), 40.2);
  EXPECT_DOUBLE_EQ(hz_to_bpm(bpm_to_hz(12.3)), 12.3);
}

TEST(Units, DegRad) {
  EXPECT_NEAR(deg_to_rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad_to_deg(kPi / 2.0), 90.0, 1e-12);
}

TEST(Units, WavelengthAt915MHz) {
  EXPECT_NEAR(wavelength_m(915e6), 0.3276, 1e-3);
}

TEST(Units, WrapPhase2Pi) {
  EXPECT_NEAR(wrap_phase_2pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_phase_2pi(kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_phase_2pi(-0.5), kTwoPi - 0.5, 1e-12);
  for (double x : {-25.0, -3.0, 0.1, 7.9, 123.4}) {
    const double w = wrap_phase_2pi(x);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kTwoPi);
    // Same angle modulo 2π.
    EXPECT_NEAR(std::remainder(w - x, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Units, WrapPhasePi) {
  EXPECT_NEAR(wrap_phase_pi(kPi + 0.25), -kPi + 0.25, 1e-12);
  for (double x : {-9.7, -0.2, 0.0, 2.5, 31.0}) {
    const double w = wrap_phase_pi(x);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    EXPECT_NEAR(std::remainder(w - x, kTwoPi), 0.0, 1e-9);
  }
}

// --- rng ---------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeMeanAndBounds) {
  Rng rng(8);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform(-2.0, 6.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 6.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 2.0, 0.1);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(9);
  int counts[6] = {0};
  for (int i = 0; i < 60000; ++i) ++counts[rng.uniform_int(0, 5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, WrappedNormalStaysOnCircleAndMatchesSigmaWhenSmall) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double w = rng.wrapped_normal(0.1);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    stats.add(w);
  }
  // For sigma << pi wrapping is negligible.
  EXPECT_NEAR(stats.stddev(), 0.1, 0.005);
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

// --- stats -------------------------------------------------------------

TEST(Stats, WelfordMatchesBatch) {
  Rng rng(20);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(rs.min(), min_value(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_value(xs));
}

TEST(Stats, WelfordMergeEqualsCombined) {
  Rng rng(21);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Stats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.mean(), 0.0);
  rs.add(7.0);
  EXPECT_EQ(rs.mean(), 7.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(Stats, MedianAndPercentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i - 7.0);
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
}

TEST(Stats, NormalizePeak) {
  std::vector<double> xs{1.0, 3.0, 5.0};  // mean 3, peak dev 2
  normalize_peak(xs);
  EXPECT_NEAR(xs[0], -1.0, 1e-12);
  EXPECT_NEAR(xs[1], 0.0, 1e-12);
  EXPECT_NEAR(xs[2], 1.0, 1e-12);
  std::vector<double> flat{4.0, 4.0};
  normalize_peak(flat);
  EXPECT_DOUBLE_EQ(flat[0], 0.0);
}

// --- ring buffer ---------------------------------------------------------

TEST(RingBuffer, PushAndEvict) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.front(), 1);
  rb.push(4);  // evicts 1
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(rb.back(), 4);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[1], 3);
  EXPECT_EQ(rb[2], 4);
}

// The ring's overflow rule against a plain vector model that erases
// and appends: seeded random pushes with random keys, some without a
// predicate, and random pops that move the ring's head around.
TEST(RingBuffer, OverflowRuleMatchesReferenceModel) {
  struct Item {
    int key = 0;
    int seq = 0;
    bool operator==(const Item&) const = default;
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t capacity =
        static_cast<std::size_t>(rng.uniform_int(1, 9));
    RingBuffer<Item> ring(capacity);
    std::vector<Item> model;
    std::size_t counts[3] = {};
    std::size_t model_counts[3] = {};
    for (int seq = 0; seq < 400; ++seq) {
      if (!model.empty() && rng.uniform_int(0, 3) == 0) {
        EXPECT_EQ(ring.pop_front(), model.front());
        model.erase(model.begin());
        continue;
      }
      const Item item{rng.uniform_int(0, 3), seq};
      const bool keyed = rng.uniform_int(0, 4) != 0;
      const auto same_key = [&item](const Item& held) {
        return held.key == item.key;
      };
      ++counts[static_cast<std::size_t>(keyed ? ring.push(item, same_key)
                                              : ring.push(item))];
      Evicted expected = Evicted::Nothing;
      if (model.size() == capacity) {
        auto match = model.rend();
        if (keyed) match = std::find_if(model.rbegin(), model.rend(), same_key);
        if (match != model.rend()) {
          expected = Evicted::Match;
          model.erase(std::next(match).base());
        } else {
          expected = Evicted::Oldest;
          model.erase(model.begin());
        }
      }
      model.push_back(item);
      ++model_counts[static_cast<std::size_t>(expected)];
      ASSERT_EQ(ring.size(), model.size()) << "seed " << seed;
    }
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(counts[i], model_counts[i]) << "seed " << seed;
    std::vector<Item> drained;
    while (!ring.empty()) drained.push_back(ring.pop_front());
    EXPECT_EQ(drained, model) << "seed " << seed;
  }
}

TEST(RingBuffer, IndexAndErrors) {
  RingBuffer<int> rb(2);
  rb.push(10);
  EXPECT_EQ(rb[0], 10);
  EXPECT_THROW(rb[1], std::out_of_range);
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, Clear) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(5);
  EXPECT_EQ(rb.front(), 5);
}

// --- csv -----------------------------------------------------------------

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsAndValidatesWidth) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tb_csv_test.csv").string();
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.0});
    csv.row({3.5, -4.25});
    EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 2), "1,");
  std::filesystem::remove(path);
}

// --- table -----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  ConsoleTable t({"name", "v"});
  t.add_row({std::vector<std::string>{"x", "1.5"}});
  t.add_row(std::vector<double>{2.0, 3.25}, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("3.25"), std::string::npos);
  EXPECT_THROW(t.add_row(std::vector<std::string>{"too", "many", "cells"}),
               std::invalid_argument);
}

TEST(Table, AsciiBar) {
  EXPECT_EQ(ascii_bar(1.0, 1.0, 4), "####");
  EXPECT_EQ(ascii_bar(0.0, 1.0, 4), "....");
  EXPECT_EQ(ascii_bar(0.5, 1.0, 4), "##..");
  EXPECT_EQ(ascii_bar(2.0, 1.0, 4), "####");  // clamped
}

TEST(Table, Sparkline) {
  const std::string s = sparkline({0.0, 1.0});
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(sparkline({}).empty());
}

// --- geometry -----------------------------------------------------------

TEST(Geometry, VectorOps) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -2.0, 1.0};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((a - b).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 3.0);
  EXPECT_DOUBLE_EQ((2.0 * a).z, 6.0);
  const Vec3 v345{3.0, 4.0, 0.0};
  EXPECT_NEAR(v345.norm(), 5.0, 1e-12);
  EXPECT_NEAR(v345.normalized().norm(), 1.0, 1e-12);
  const Vec3 zero{};
  EXPECT_DOUBLE_EQ(zero.normalized().norm(), 0.0);
}

TEST(Geometry, DistanceAndAngle) {
  EXPECT_NEAR(distance({0, 0, 0}, {1, 1, 1}), std::sqrt(3.0), 1e-12);
  EXPECT_NEAR(angle_between({1, 0, 0}, {0, 1, 0}), kPi / 2.0, 1e-12);
  EXPECT_NEAR(angle_between({1, 0, 0}, {-1, 0, 0}), kPi, 1e-12);
  EXPECT_DOUBLE_EQ(angle_between({0, 0, 0}, {1, 0, 0}), 0.0);
}

TEST(Geometry, RotateZ) {
  const Vec3 x{1.0, 0.0, 0.5};
  const Vec3 r = rotate_z(x, kPi / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.z, 0.5);
}

}  // namespace
}  // namespace tagbreathe::common
