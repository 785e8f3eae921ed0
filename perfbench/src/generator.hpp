// Seeded ground-truth ward generator.
//
// Every user breathes at a known rate; each of the user's tags reports
// phase  θ = wrap(4π·(d0 + g·A·sin(2π f t + φ)) / λ_c + c_{tag,ant,ch} + n)
// with a per-(tag, antenna, channel) offset c and wrapped Gaussian
// noise n, the shape of Eqs. 1-3. Reads are grouped per reader and
// encoded as LLRP RO_ACCESS_REPORT frames (encode_tag_reports +
// encode_message), so the system under test sees only wire bytes.
// The same seed always yields the same users, schedule and bytes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "llrp/params.hpp"

namespace perfbench {

namespace common = tagbreathe::common;
namespace core = tagbreathe::core;
namespace llrp = tagbreathe::llrp;
namespace rfid = tagbreathe::rfid;

inline constexpr double kNever = std::numeric_limits<double>::infinity();
/// Breathing rate range, drawn uniformly per user [breaths/min].
inline constexpr double kBpmLo = 10.0;
inline constexpr double kBpmHi = 20.0;
/// Chest displacement amplitude [m].
inline constexpr double kAmplitudeM = 0.005;
/// Report-to-report phase noise [rad]; the repository's reader model
/// floor is 0.015 rad at strong RSSI.
inline constexpr double kPhaseNoiseRad = 0.02;

struct GeneratorConfig {
  std::uint64_t seed = 1;
  std::size_t n_users = 100;
  std::size_t n_readers = 4;
  std::size_t tags_per_user = 1;
  /// Antenna ports read round-robin, one port per read.
  std::size_t antennas = 1;
  /// Per-tag read rate, drawn uniformly per tag [Hz].
  double read_hz_lo = 1.0;
  double read_hz_hi = 2.0;
  /// true: the 10-channel paper plan at 0.2 s dwell, hopped per reader;
  /// false: each reader parks on one channel.
  bool hop = false;
  /// Share of reads an overlapping neighbour reader also delivers,
  /// 2 ms later (an overlap duplicate the fleet must suppress).
  double overlap_share = 0.0;
  std::size_t users_per_ward = 64;

  // --- churn ---------------------------------------------------------------
  /// Each user is present from t = 0 with this probability, else
  /// arrives uniformly over [0, arrival_horizon_s).
  double initial_share = 1.0;
  double arrival_horizon_s = 0.0;
  /// Stay length once arrived, uniform [stay_lo_s, stay_hi_s); <= 0
  /// means users never leave.
  double stay_lo_s = 0.0;
  double stay_hi_s = 0.0;
  /// Share of users that go silent (no reads) once for silent_s.
  double silent_share = 0.0;
  double silent_s = 8.0;
  /// Share of users that stop breathing once for apnea_s.
  double apnea_share = 0.0;
  double apnea_s = 20.0;
  /// Silence, apnea and blackout onsets fall in
  /// [events_after_s, events_until_s).
  double events_after_s = 0.0;
  double events_until_s = 0.0;
  /// Reader blackouts: every blackout_every_s one seeded reader goes
  /// dark for blackout_s and none of its tags is heard meanwhile.
  double blackout_every_s = 0.0;
  double blackout_s = 3.0;
};

/// Ground truth of one user.
struct UserTruth {
  std::uint64_t id = 0;
  double bpm = 0.0;
  std::size_t reader = 0;
  double arrive_s = 0.0;
  double leave_s = kNever;
  double silent_from_s = kNever;
  double silent_to_s = kNever;
  double apnea_from_s = kNever;
  double apnea_to_s = kNever;
};

struct Blackout {
  std::size_t reader = 0;
  double from_s = 0.0;
  double to_s = 0.0;
};

/// What one slice produced.
struct SliceStats {
  std::size_t reads = 0;       // reads encoded, duplicates included
  std::size_t duplicates = 0;  // overlap duplicates among them
  std::size_t frames = 0;      // LLRP messages encoded
};

class Generator {
 public:
  explicit Generator(GeneratorConfig config);

  /// Encodes every read with time in [t0, t1) into LLRP frames,
  /// appended per reader to `wire[reader]` (resized to n_readers).
  /// Slices must be requested in ascending, contiguous order.
  SliceStats make_slice(double t0, double t1,
                        std::vector<std::vector<std::uint8_t>>& wire);

  const std::vector<UserTruth>& users() const noexcept { return users_; }
  const std::vector<Blackout>& blackouts() const noexcept {
    return blackouts_;
  }
  const GeneratorConfig& config() const noexcept { return config_; }

  /// True breathing rate of `user` over the window [t0, t1], or NaN
  /// unless the user was present, read and breathing throughout it.
  double truth_bpm(std::uint64_t user, double t0, double t1) const noexcept;
  /// Whether `user`'s tags are heard at stream time `t`.
  bool reading_at(std::uint64_t user, double t) const noexcept;

 private:
  struct Tag {
    std::uint32_t user_index = 0;
    std::uint32_t tag_id = 0;
    double interval_s = 1.0;
    double next_s = 0.0;
    double gain = 1.0;
    double rssi_dbm = -55.0;
    std::uint64_t reads = 0;
  };
  struct Pending {
    double time_s = 0.0;
    llrp::TagReportEntry entry;
  };

  double displacement(const UserTruth& user, double phase0,
                      double t) const noexcept;
  double offset(std::uint64_t user, std::uint32_t tag, std::size_t antenna,
                std::size_t channel) const noexcept;
  std::size_t channel_at(std::size_t reader, double t) const noexcept;

  GeneratorConfig config_;
  common::Rng rng_;
  std::vector<UserTruth> users_;
  std::vector<double> breath_phase_;  // per user
  std::vector<Tag> tags_;
  std::vector<Blackout> blackouts_;
  std::vector<std::vector<std::size_t>> hop_order_;  // per reader
  std::vector<std::vector<Pending>> pending_;        // per reader, reused
  std::vector<llrp::TagReportEntry> entries_;        // reused
  std::uint32_t next_message_id_ = 1;
};

}  // namespace perfbench
