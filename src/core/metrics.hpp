// Evaluation metrics (Sec. VI-B, Eq. 8) and runtime counter primitives
// shared by the observability surfaces (ingest queue delay, etc.).
#pragma once

#include <cstdint>
#include <span>

namespace tagbreathe::core {

/// Streaming latency accumulator: constant space, deterministic, cheap
/// enough for per-read accounting. The ingest queue records the
/// stream-time delay between enqueue and drain through one of these.
struct LatencyStats {
  std::uint64_t samples = 0;
  double total_s = 0.0;
  double max_s = 0.0;

  void record(double seconds) noexcept;
  double mean_s() const noexcept;
  void merge(const LatencyStats& other) noexcept;
};

/// Durability-layer observability (core/journal, core/snapshot,
/// core/recovery): what was persisted, what was skipped as corrupt, and
/// what recovery rebuilt. Each component fills the fields it owns;
/// DurableMonitor::counters() merges them into one view (the chaos-soak
/// summary prints it). Corruption counters matter most: a bit-flipped
/// journal record or a rejected snapshot must surface here, never as a
/// crash.
struct DurabilityCounters {
  // Journal write path.
  std::uint64_t journal_records_appended = 0;
  std::uint64_t journal_commits = 0;
  std::uint64_t journal_bytes_written = 0;
  std::uint64_t journal_segments_created = 0;
  std::uint64_t journal_segments_pruned = 0;
  // Journal scan / replay path.
  std::uint64_t replay_records = 0;           // intact records replayed
  std::uint64_t replay_quarantined = 0;       // replayed, refused by validation
  std::uint64_t journal_records_corrupt = 0;  // CRC/frame failures skipped
  std::uint64_t journal_truncated_tails = 0;  // torn segment tails skipped
  std::uint64_t journal_segments_scanned = 0;
  std::uint64_t journal_segments_rejected = 0;  // unreadable segment headers
  // Snapshot path.
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_bytes_written = 0;
  std::uint64_t snapshots_pruned = 0;
  std::uint64_t snapshots_loaded = 0;    // accepted at recovery
  std::uint64_t snapshots_rejected = 0;  // bad magic/version/CRC, skipped

  /// Field-wise sum (all counters are monotonic totals).
  void merge(const DurabilityCounters& other) noexcept;
};

/// Eq. 8: accuracy = 1 − |R̂ − R| / R. Clamped to [0, 1] (a wildly wrong
/// estimate cannot score below zero, matching how such plots are read).
///
/// Edge contract (tested in test_rate_metrics):
/// - true_bpm <= 0 (including negative): the relative error is
///   undefined, so the score is exact-match only — 1 when the estimate
///   is exactly 0, else 0. No division by zero ever happens.
/// - NaN in either argument (with true_bpm > 0 or true_bpm NaN)
///   propagates: the result is NaN, never silently clamped to a valid
///   score. Callers averaging accuracies must filter non-finite inputs.
/// - Every finite result lies in [0, 1]; a negative estimate against a
///   positive truth just clamps to 0.
double breathing_rate_accuracy(double estimated_bpm, double true_bpm) noexcept;

/// Absolute error in breaths per minute. |est − true|; NaN propagates.
double rate_error_bpm(double estimated_bpm, double true_bpm) noexcept;

/// Mean Eq. 8 accuracy over the pairs whose mask entry is non-zero.
/// Degradation analyses compare a faulty run to a fault-free run on the
/// non-gap windows only (mask = SignalHealth::Ok), since gap windows
/// are flagged rather than scored. Returns 0 when nothing is included.
double mean_accuracy_masked(std::span<const double> estimated_bpm,
                            std::span<const double> true_bpm,
                            std::span<const std::uint8_t> include);

/// Largest |estimate − truth| [bpm] over the included pairs (0 when
/// nothing is included).
double max_rate_error_masked(std::span<const double> estimated_bpm,
                             std::span<const double> true_bpm,
                             std::span<const std::uint8_t> include);

}  // namespace tagbreathe::core
