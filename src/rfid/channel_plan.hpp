// Regulatory channel plans and the frequency-hopping schedule.
//
// UHF readers must hop (Sec. IV-A.3): a fixed carrier violates radio
// regulations in most regions and suffers frequency-selective fading.
// The paper's reader hops among 10 channels with a ~0.2 s dwell (Fig. 5),
// which is what makes raw phase discontinuous (Fig. 4) — each channel has
// a different wavelength λ and offset c in Eq. 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tagbreathe::rfid {

class ChannelPlan {
 public:
  /// `frequencies_hz` are the channel centre frequencies, indexed from 0.
  ChannelPlan(std::string region_name, std::vector<double> frequencies_hz,
              double dwell_s);

  /// The plan used in the paper's measurements: 10 channels, 500 kHz
  /// spacing, 920.25-924.75 MHz (Hong Kong 920-925 MHz band), 0.2 s dwell.
  static ChannelPlan paper_plan();

  /// FCC US plan: 50 channels, 902.75-927.25 MHz, 0.4 s max dwell.
  static ChannelPlan us_plan();

  std::size_t channel_count() const noexcept { return frequencies_hz_.size(); }
  double frequency_hz(std::size_t index) const;
  double wavelength_m(std::size_t index) const;
  double dwell_s() const noexcept { return dwell_s_; }
  const std::string& region() const noexcept { return region_name_; }

 private:
  std::string region_name_;
  std::vector<double> frequencies_hz_;
  double dwell_s_;
};

/// Pseudo-random hop sequence: visits every channel once per epoch in a
/// seeded permutation (FCC-style frequency-hopping), reshuffled each
/// epoch. Deterministic function of time given the seed.
class HopSchedule {
 public:
  HopSchedule(ChannelPlan plan, std::uint64_t seed = 1);

  /// Channel index active at time t (t >= 0).
  std::size_t channel_at(double t) const;

  /// Time of the next hop boundary strictly after t.
  double next_hop_time(double t) const noexcept;

  const ChannelPlan& plan() const noexcept { return plan_; }

 private:
  const std::vector<std::size_t>& epoch_permutation(std::uint64_t epoch) const;

  ChannelPlan plan_;
  std::uint64_t seed_;
  // Cache of the most recently used epoch permutation (experiments move
  // forward in time, so a single-entry cache hits almost always).
  mutable std::uint64_t cached_epoch_ = ~0ULL;
  mutable std::vector<std::size_t> cached_perm_;
};

}  // namespace tagbreathe::rfid
