#include "generator.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/units.hpp"
#include "core/types.hpp"
#include "llrp/message.hpp"
#include "rfid/channel_plan.hpp"
#include "rfid/epc.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kChannels = 10;
constexpr double kDwellS = 0.2;
/// Entries per RO_ACCESS_REPORT: keeps a frame far below the framer's
/// 64 KiB bound.
constexpr std::size_t kEntriesPerFrame = 400;
/// An overlap duplicate trails the original by this much, inside the
/// fleet's handoff suppression window.
constexpr double kDuplicateLagS = 0.002;

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from a hash of the key words: per-read randomness
/// that depends only on (seed, tag, read index), never on slicing.
double unit(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
            std::uint64_t d = 0) noexcept {
  const std::uint64_t h = mix(mix(mix(mix(a) ^ b) ^ c) ^ d);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double gaussian(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  const double u1 = std::max(unit(a, b, c, 1), 1e-300);
  const double u2 = unit(a, b, c, 2);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(common::kTwoPi * u2);
}

double wrap_2pi(double x) noexcept {
  double r = std::fmod(x, common::kTwoPi);
  if (r < 0.0) r += common::kTwoPi;
  return r;
}

const rfid::ChannelPlan& plan() {
  static const rfid::ChannelPlan kPlan = rfid::ChannelPlan::paper_plan();
  return kPlan;
}

}  // namespace

Generator::Generator(GeneratorConfig config)
    : config_(config), rng_(config.seed) {
  const GeneratorConfig& c = config_;
  const std::size_t n = c.n_users;
  users_.resize(n);
  breath_phase_.resize(n);
  const double events_span = std::max(0.0, c.events_until_s - c.events_after_s);
  for (std::size_t i = 0; i < n; ++i) {
    UserTruth& u = users_[i];
    u.id = i + 1;
    u.bpm = rng_.uniform(kBpmLo, kBpmHi);
    u.reader = i * c.n_readers / n;
    breath_phase_[i] = rng_.uniform(0.0, common::kTwoPi);
    if (c.arrival_horizon_s > 0.0 && !rng_.bernoulli(c.initial_share))
      u.arrive_s = rng_.uniform(0.0, c.arrival_horizon_s);
    if (c.stay_hi_s > 0.0)
      u.leave_s = u.arrive_s + rng_.uniform(c.stay_lo_s, c.stay_hi_s);
    if (events_span > 0.0 && rng_.bernoulli(c.silent_share)) {
      u.silent_from_s = std::max(u.arrive_s, c.events_after_s) +
                        rng_.uniform(0.0, events_span);
      u.silent_to_s = u.silent_from_s + c.silent_s;
    }
    if (events_span > 0.0 && rng_.bernoulli(c.apnea_share)) {
      u.apnea_from_s = std::max(u.arrive_s, c.events_after_s) +
                       rng_.uniform(0.0, events_span);
      u.apnea_to_s = u.apnea_from_s + c.apnea_s;
    }
  }
  if (c.blackout_every_s > 0.0) {
    for (double t = c.events_after_s; t < c.events_until_s;
         t += c.blackout_every_s) {
      const std::size_t reader = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(c.n_readers) - 1));
      blackouts_.push_back(Blackout{reader, t, t + c.blackout_s});
    }
  }
  hop_order_.resize(c.n_readers);
  for (std::vector<std::size_t>& order : hop_order_) {
    order.resize(kChannels);
    for (std::size_t k = 0; k < kChannels; ++k) order[k] = k;
    for (std::size_t k = kChannels - 1; k > 0; --k) {
      const std::size_t j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(k)));
      std::swap(order[k], order[j]);
    }
  }
  tags_.reserve(n * c.tags_per_user);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < c.tags_per_user; ++k) {
      Tag tag;
      tag.user_index = static_cast<std::uint32_t>(i);
      tag.tag_id = static_cast<std::uint32_t>(k + 1);
      tag.interval_s = 1.0 / rng_.uniform(c.read_hz_lo, c.read_hz_hi);
      tag.next_s = users_[i].arrive_s + rng_.uniform(0.0, tag.interval_s);
      tag.gain = rng_.uniform(0.6, 1.0);
      tag.rssi_dbm = rng_.uniform(-65.0, -45.0);
      tags_.push_back(tag);
    }
  }
  // The stream opens at exactly t = 0, so the fleet's update grid lands
  // on whole seconds and on slice boundaries.
  if (!tags_.empty()) {
    users_[0].arrive_s = 0.0;
    tags_[0].next_s = 0.0;
  }
  pending_.resize(c.n_readers);
}

bool Generator::reading_at(std::uint64_t user, double t) const noexcept {
  if (user == 0 || user > users_.size()) return false;
  const UserTruth& u = users_[user - 1];
  if (t < u.arrive_s || t >= u.leave_s) return false;
  if (t >= u.silent_from_s && t < u.silent_to_s) return false;
  for (const Blackout& b : blackouts_) {
    if (b.reader == u.reader && t >= b.from_s && t < b.to_s) return false;
  }
  return true;
}

double Generator::truth_bpm(std::uint64_t user, double t0,
                            double t1) const noexcept {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if (user == 0 || user > users_.size()) return nan;
  const UserTruth& u = users_[user - 1];
  const auto overlaps = [t0, t1](double from, double to) {
    return from < t1 && to > t0;
  };
  if (t0 < u.arrive_s || t1 >= u.leave_s) return nan;
  if (overlaps(u.silent_from_s, u.silent_to_s)) return nan;
  if (overlaps(u.apnea_from_s, u.apnea_to_s)) return nan;
  for (const Blackout& b : blackouts_) {
    if (b.reader == u.reader && overlaps(b.from_s, b.to_s)) return nan;
  }
  return u.bpm;
}

double Generator::displacement(const UserTruth& user, double phase0,
                               double t) const noexcept {
  // A breath hold freezes the chest where the apnea began.
  const double at =
      (t >= user.apnea_from_s && t < user.apnea_to_s) ? user.apnea_from_s : t;
  return kAmplitudeM *
         std::sin(common::kTwoPi * user.bpm / 60.0 * at + phase0);
}

double Generator::offset(std::uint64_t user, std::uint32_t tag,
                         std::size_t antenna,
                         std::size_t channel) const noexcept {
  return common::kTwoPi *
         unit(config_.seed ^ 0x0FF5E7ull, user, (std::uint64_t{tag} << 8) | antenna,
              channel);
}

std::size_t Generator::channel_at(std::size_t reader,
                                  double t) const noexcept {
  if (!config_.hop) return reader % kChannels;
  const std::size_t dwell = static_cast<std::size_t>(t / kDwellS);
  return hop_order_[reader][(dwell + 3 * reader) % kChannels];
}

SliceStats Generator::make_slice(
    double t0, double t1, std::vector<std::vector<std::uint8_t>>& wire) {
  const GeneratorConfig& c = config_;
  wire.resize(c.n_readers);
  SliceStats stats;

  for (std::size_t ti = 0; ti < tags_.size(); ++ti) {
    Tag& tag = tags_[ti];
    const UserTruth& user = users_[tag.user_index];
    while (tag.next_s < t1) {
      const double t = tag.next_s;
      const std::uint64_t index = tag.reads++;
      const double jitter = unit(c.seed, ti, index, 7) * 0.2 - 0.1;
      tag.next_s = t + tag.interval_s * (1.0 + jitter);
      if (t < t0 || !reading_at(user.id, t)) continue;

      const std::size_t antenna = 1 + index % std::max<std::size_t>(c.antennas, 1);
      const std::size_t channel = channel_at(user.reader, t);
      const double lambda = common::kSpeedOfLight / plan().frequency_hz(channel);
      const double d0 =
          1.0 + 2.0 * unit(c.seed ^ 0xD157ull, user.id, tag.tag_id, antenna);
      const double d =
          d0 + tag.gain * displacement(user, breath_phase_[tag.user_index], t);
      const double noise =
          kPhaseNoiseRad * gaussian(c.seed ^ 0x9015Eull, ti, index);

      core::TagRead read;
      read.time_s = t;
      read.epc = rfid::Epc96::from_user_tag(user.id, tag.tag_id);
      read.antenna_id = static_cast<std::uint8_t>(antenna);
      read.channel_index = static_cast<std::uint16_t>(channel);
      read.frequency_hz = plan().frequency_hz(channel);
      read.rssi_dbm = tag.rssi_dbm;
      read.phase_rad = wrap_2pi(2.0 * common::kTwoPi * d / lambda +
                                offset(user.id, tag.tag_id, antenna, channel) +
                                noise);
      pending_[user.reader].push_back(Pending{t, llrp::to_wire(read)});
      ++stats.reads;
      if (c.overlap_share > 0.0 && c.n_readers > 1 &&
          unit(c.seed ^ 0xD0Bull, ti, index) < c.overlap_share) {
        read.time_s = t + kDuplicateLagS;
        pending_[(user.reader + 1) % c.n_readers].push_back(
            Pending{read.time_s, llrp::to_wire(read)});
        ++stats.reads;
        ++stats.duplicates;
      }
    }
  }

  for (std::size_t r = 0; r < c.n_readers; ++r) {
    std::vector<Pending>& p = pending_[r];
    std::stable_sort(p.begin(), p.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.time_s < b.time_s;
                     });
    // A duplicate trailing past t1 belongs to the next slice: each
    // reader's stream stays in time order whatever the slice width.
    const std::size_t due = static_cast<std::size_t>(
        std::lower_bound(p.begin(), p.end(), t1,
                         [](const Pending& a, double t) { return a.time_s < t; }) -
        p.begin());
    for (std::size_t begin = 0; begin < due; begin += kEntriesPerFrame) {
      const std::size_t end = std::min(begin + kEntriesPerFrame, due);
      entries_.clear();
      for (std::size_t i = begin; i < end; ++i) entries_.push_back(p[i].entry);
      llrp::Message message;
      message.type = llrp::MessageType::RoAccessReport;
      message.message_id = next_message_id_++;
      message.body = llrp::encode_tag_reports(
          std::span<const llrp::TagReportEntry>(entries_));
      const std::vector<std::uint8_t> bytes = llrp::encode_message(message);
      wire[r].insert(wire[r].end(), bytes.begin(), bytes.end());
      ++stats.frames;
    }
    p.erase(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(due));
  }
  return stats;
}

}  // namespace perfbench
