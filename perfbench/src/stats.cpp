#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double tail_quantile(std::size_t n, double cap, std::size_t beyond) noexcept {
  if (n < 2 * beyond) return 0.5;
  const double q = 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::clamp(q, 0.5, cap);
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Percentile median_of(std::vector<double>& samples) {
  return Percentile{quantile(samples, 0.5), 0.5, samples.size()};
}

Percentile tail_of(std::vector<double>& samples, double cap) {
  const double q = tail_quantile(samples.size(), cap);
  return Percentile{quantile(samples, q), q, samples.size()};
}

Percentile windowed_tail(const std::vector<double>& samples,
                         const std::vector<std::size_t>& window, double cap) {
  std::vector<std::vector<double>> groups;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (window[i] >= groups.size()) groups.resize(window[i] + 1);
    groups[window[i]].push_back(samples[i]);
  }
  std::vector<double> tails;
  double q = cap;
  for (std::vector<double>& g : groups) {
    if (g.empty()) continue;
    const Percentile p = tail_of(g, cap);
    tails.push_back(p.value);
    q = std::min(q, p.q);
  }
  return Percentile{quantile(tails, 0.5), q, samples.size()};
}

namespace {
double clock_s(clockid_t id) noexcept {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() noexcept { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() noexcept { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double wall_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double users_per_core(std::size_t users, double stream_s,
                      const CpuLedger& cpu) noexcept {
  const double system = cpu.system_s();
  if (!(system > 0.0)) return 0.0;
  return static_cast<double>(users) * stream_s / system;
}

std::uint64_t fnv1a_line(std::uint64_t hash, std::string_view line) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  for (const char c : line) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kPrime;
  }
  hash ^= static_cast<std::uint8_t>('\n');
  hash *= kPrime;
  return hash;
}

std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

IoCounters io_counters() {
  IoCounters io;
  std::ifstream file("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (file >> key >> value) {
    if (key == "wchar:") io.write_bytes = value;
    if (key == "syscw:") io.write_calls = value;
  }
  return io;
}

}  // namespace perfbench
