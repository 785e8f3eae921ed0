#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tagbreathe::core {

void LatencyStats::record(double seconds) noexcept {
  ++samples;
  total_s += seconds;
  max_s = std::max(max_s, seconds);
}

double LatencyStats::mean_s() const noexcept {
  return samples == 0 ? 0.0 : total_s / static_cast<double>(samples);
}

void LatencyStats::merge(const LatencyStats& other) noexcept {
  samples += other.samples;
  total_s += other.total_s;
  max_s = std::max(max_s, other.max_s);
}

void DurabilityCounters::merge(const DurabilityCounters& other) noexcept {
  journal_records_appended += other.journal_records_appended;
  journal_commits += other.journal_commits;
  journal_bytes_written += other.journal_bytes_written;
  journal_segments_created += other.journal_segments_created;
  journal_segments_pruned += other.journal_segments_pruned;
  replay_records += other.replay_records;
  replay_quarantined += other.replay_quarantined;
  journal_records_corrupt += other.journal_records_corrupt;
  journal_truncated_tails += other.journal_truncated_tails;
  journal_segments_scanned += other.journal_segments_scanned;
  journal_segments_rejected += other.journal_segments_rejected;
  snapshots_written += other.snapshots_written;
  snapshot_bytes_written += other.snapshot_bytes_written;
  snapshots_pruned += other.snapshots_pruned;
  snapshots_loaded += other.snapshots_loaded;
  snapshots_rejected += other.snapshots_rejected;
}

double breathing_rate_accuracy(double estimated_bpm,
                               double true_bpm) noexcept {
  if (true_bpm <= 0.0) return estimated_bpm == 0.0 ? 1.0 : 0.0;
  const double acc = 1.0 - std::abs(estimated_bpm - true_bpm) / true_bpm;
  return std::clamp(acc, 0.0, 1.0);
}

double rate_error_bpm(double estimated_bpm, double true_bpm) noexcept {
  return std::abs(estimated_bpm - true_bpm);
}

double mean_accuracy_masked(std::span<const double> estimated_bpm,
                            std::span<const double> true_bpm,
                            std::span<const std::uint8_t> include) {
  if (estimated_bpm.size() != true_bpm.size() ||
      estimated_bpm.size() != include.size())
    throw std::invalid_argument("mean_accuracy_masked: size mismatch");
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < estimated_bpm.size(); ++i) {
    if (!include[i]) continue;
    s += breathing_rate_accuracy(estimated_bpm[i], true_bpm[i]);
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

double max_rate_error_masked(std::span<const double> estimated_bpm,
                             std::span<const double> true_bpm,
                             std::span<const std::uint8_t> include) {
  if (estimated_bpm.size() != true_bpm.size() ||
      estimated_bpm.size() != include.size())
    throw std::invalid_argument("max_rate_error_masked: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < estimated_bpm.size(); ++i) {
    if (!include[i]) continue;
    worst = std::max(worst, rate_error_bpm(estimated_bpm[i], true_bpm[i]));
  }
  return worst;
}

}  // namespace tagbreathe::core
