// Measurement helpers of the tag-to-subscriber benchmark: the tail
// percentile rule, due-time latency accounting for an open-loop
// schedule, CPU attribution, and the event-log hash. Kept free of the
// system under test so the benchmark's own unit tests can pin them.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Highest percentile, at most `cap`, that leaves at least `beyond`
/// samples above it among `n` samples: q = 1 - beyond / n, clamped to
/// [0.5, cap]. Below 2 * beyond samples the tail is not resolvable and
/// the rule falls back to the median.
double tail_quantile(std::size_t n, double cap = 0.99,
                     std::size_t beyond = 10) noexcept;

/// Linear-interpolated quantile of `samples` (sorted in place).
/// Returns 0 for an empty set.
double quantile(std::vector<double>& samples, double q);

/// A percentile as reported: the value, the quantile actually used and
/// the sample count behind it.
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};
Percentile median_of(std::vector<double>& samples);
Percentile tail_of(std::vector<double>& samples, double cap = 0.99);

/// Tail of samples grouped in time windows: tail_of within each window,
/// then the median across windows. One window's burst moves one window
/// value, not the result. `window[i]` is sample i's window index.
/// Reports the lowest quantile any window used and the total count.
Percentile windowed_tail(const std::vector<double>& samples,
                         const std::vector<std::size_t>& window,
                         double cap = 0.99);

/// Open-loop schedule: stream time `stream_origin_s` is due at wall time
/// `wall_origin_s` and stream time advances with wall time. The schedule
/// never waits for the system, so a stall is charged to every event due
/// after it.
class DueSchedule {
 public:
  DueSchedule(double wall_origin_s, double stream_origin_s) noexcept
      : wall_origin_s_(wall_origin_s), stream_origin_s_(stream_origin_s) {}

  /// Wall instant at which stream time `stream_s` is due.
  double due_wall(double stream_s) const noexcept {
    return wall_origin_s_ + (stream_s - stream_origin_s_);
  }
  /// Latency of a result for stream time `stream_s` observed at wall
  /// time `observed_wall_s`.
  double latency(double stream_s, double observed_wall_s) const noexcept {
    return observed_wall_s - due_wall(stream_s);
  }

 private:
  double wall_origin_s_;
  double stream_origin_s_;
};

/// CPU seconds of the whole process (every thread, live or joined).
double process_cpu_s() noexcept;
/// CPU seconds of the calling thread.
double thread_cpu_s() noexcept;
/// Monotonic wall clock [s].
double wall_s() noexcept;

/// CPU attribution over one measured interval: the system's CPU is the
/// process CPU minus what the benchmark's own generator and subscriber
/// threads burned.
struct CpuLedger {
  double process_s = 0.0;
  double generator_s = 0.0;
  double subscriber_s = 0.0;

  double system_s() const noexcept {
    return process_s - generator_s - subscriber_s;
  }
};

/// Realtime users one core sustains: user-seconds of stream served per
/// CPU-second the system spent. 0 when no system CPU was measured.
double users_per_core(std::size_t users, double stream_s,
                      const CpuLedger& cpu) noexcept;

/// FNV-1a over one log line plus a newline terminator.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t fnv1a_line(std::uint64_t hash, std::string_view line) noexcept;

/// Resident set size of this process [bytes] (0 if unavailable).
std::size_t resident_bytes();

/// Bytes and write calls this process issued (/proc/self/io wchar,
/// syscw); zeros if unavailable.
struct IoCounters {
  std::uint64_t write_bytes = 0;
  std::uint64_t write_calls = 0;
};
IoCounters io_counters();

}  // namespace perfbench
