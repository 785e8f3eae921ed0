#include "rfid/channel_plan.hpp"

#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace tagbreathe::rfid {

ChannelPlan::ChannelPlan(std::string region_name,
                         std::vector<double> frequencies_hz, double dwell_s)
    : region_name_(std::move(region_name)),
      frequencies_hz_(std::move(frequencies_hz)),
      dwell_s_(dwell_s) {
  if (frequencies_hz_.empty())
    throw std::invalid_argument("ChannelPlan: no channels");
  if (dwell_s_ <= 0.0)
    throw std::invalid_argument("ChannelPlan: dwell must be positive");
  for (double f : frequencies_hz_) {
    if (f <= 0.0) throw std::invalid_argument("ChannelPlan: bad frequency");
  }
}

ChannelPlan ChannelPlan::paper_plan() {
  std::vector<double> freqs;
  freqs.reserve(10);
  for (int k = 0; k < 10; ++k)
    freqs.push_back((920.25 + 0.5 * k) * 1e6);
  return ChannelPlan("HK-920", std::move(freqs), 0.2);
}

ChannelPlan ChannelPlan::us_plan() {
  std::vector<double> freqs;
  freqs.reserve(50);
  for (int k = 0; k < 50; ++k)
    freqs.push_back((902.75 + 0.5 * k) * 1e6);
  return ChannelPlan("FCC-902", std::move(freqs), 0.4);
}

double ChannelPlan::frequency_hz(std::size_t index) const {
  if (index >= frequencies_hz_.size())
    throw std::out_of_range("ChannelPlan: channel index");
  return frequencies_hz_[index];
}

double ChannelPlan::wavelength_m(std::size_t index) const {
  return common::wavelength_m(frequency_hz(index));
}

HopSchedule::HopSchedule(ChannelPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

const std::vector<std::size_t>& HopSchedule::epoch_permutation(
    std::uint64_t epoch) const {
  if (epoch == cached_epoch_) return cached_perm_;
  cached_perm_.resize(plan_.channel_count());
  std::iota(cached_perm_.begin(), cached_perm_.end(), std::size_t{0});
  common::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + epoch + 1);
  // Fisher-Yates shuffle.
  for (std::size_t i = cached_perm_.size(); i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(cached_perm_[i - 1], cached_perm_[j]);
  }
  cached_epoch_ = epoch;
  return cached_perm_;
}

std::size_t HopSchedule::channel_at(double t) const {
  if (t < 0.0) t = 0.0;
  const double dwell = plan_.dwell_s();
  const auto slot = static_cast<std::uint64_t>(t / dwell);
  const std::uint64_t epoch = slot / plan_.channel_count();
  const std::size_t within =
      static_cast<std::size_t>(slot % plan_.channel_count());
  return epoch_permutation(epoch)[within];
}

double HopSchedule::next_hop_time(double t) const noexcept {
  const double dwell = plan_.dwell_s();
  const double slot = std::floor(t / dwell);
  return (slot + 1.0) * dwell;
}

}  // namespace tagbreathe::rfid
