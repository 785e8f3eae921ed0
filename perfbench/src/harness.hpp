// The tag-to-subscriber benchmark run: one workload replayed open-loop
// through LLRP decode -> ReaderFleet::offer -> ReaderFleet::pump ->
// EventBus::publish -> TelemetryService::pump -> TelemetryClient parse.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "generator.hpp"
#include "telemetry/client.hpp"
#include "telemetry/service.hpp"

namespace perfbench {

namespace fleet = tagbreathe::fleet;
namespace obs = tagbreathe::obs;
namespace telemetry = tagbreathe::telemetry;

/// One telemetry subscriber of a workload.
struct SubscriberSpec {
  telemetry::FilterSpec filter{};
  telemetry::OverflowPolicy policy = telemetry::OverflowPolicy::DropOldest;
  /// Reads its connection only every `step_every` pumps (1 = every pump);
  /// a large stride makes a slow consumer.
  std::size_t step_every = 1;
};

/// Pump cadence: one generator slice and one fleet pump per period.
/// A power of two, so slice ends land exactly on the 1 s update grid.
inline constexpr double kSliceS = 1.0 / 32.0;
/// Stream time replayed unthrottled before measuring: one full 30 s
/// analysis window, so every measured event comes from a full window.
inline constexpr double kPrefillS = 30.0;
/// event_latency_p99_ms is taken per window of this length and the
/// median across windows is reported: events arrive in 1 s tick waves,
/// so a pooled p99 is the single slowest tick of the run.
inline constexpr double kTailWindowS = 5.0;
/// System constructions timed for setup_s.
inline constexpr std::size_t kSetups = 31;

struct Workload {
  std::string name;
  GeneratorConfig generator;
  fleet::FleetConfig fleet;
  telemetry::TelemetryServiceConfig service;
  /// subscribers[0] is the primary All-filter subscriber the latency
  /// and event-loss metrics are taken on.
  std::vector<SubscriberSpec> subscribers;
  bool journal = false;
  /// Correctness floor on the mean Eq. 8 accuracy.
  double rate_accuracy_floor = 0.8;
};

/// Builds a workload; `seconds` is the measured stream length (sizes
/// the churn schedule). Throws std::invalid_argument for unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds);

struct RunOptions {
  double seconds = 10.0;
  /// false: one untraced measured phase. true: the measured phase is
  /// split in an untraced half and a traced half.
  bool trace = false;
  /// Scratch directory (journals, span dump).
  std::string work_dir = ".";
  /// Processing threads besides the generator; shard_threads is capped
  /// to it so generator + shard threads never exceed the cores.
  std::size_t cores = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for a single measured quantity).
  std::size_t samples = 1;
  /// Note printed with the metric (e.g. the percentile actually used).
  std::string note;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable attribution table (trace runs).
  std::vector<std::string> table;
  std::vector<std::string> failures;  // correctness violations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t event_log_hash = 0;
};

RunResult run_workload(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
