// Shared soak-invariant gate for the chaos, crash-recovery and fleet
// test suites (ISSUE 6 satellite): one place asserts that a soak came
// back clean and that the queue's books balance, instead of three
// hand-rolled copies drifting apart.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ingest.hpp"

namespace tagbreathe::testutil {

/// Fails the current test once per violation line, so a broken soak
/// names every violated invariant instead of just "ok() was false".
inline void expect_no_violations(const std::vector<std::string>& violations,
                                 const std::string& context = {}) {
  for (const std::string& v : violations) ADD_FAILURE() << context << v;
}

/// Counter-conservation gate: every read accepted into a queue is
/// drained, shed or coalesced — never silently lost — and the depth
/// high-water mark respects the capacity bound. The soak harnesses run
/// the same law internally (core::append_queue_invariant_violations);
/// asserting it here too keeps the tests honest if a harness regresses.
inline void expect_queue_conservation(const core::IngestQueueCounters& queue,
                                      std::size_t capacity,
                                      const std::string& context = {}) {
  EXPECT_EQ(queue.enqueued,
            queue.drained + queue.shed_oldest + queue.coalesced)
      << context << "queue counter conservation broken";
  EXPECT_LE(queue.peak_depth, capacity)
      << context << "queue depth exceeded capacity";
}

/// Rates a soak vouched for (`reliable=1`) against each user's truth,
/// read back from the soak's formatted event log (core::format_soak_event).
struct VouchedTally {
  std::size_t vouched = 0;
  /// Vouched rates more than 3 bpm from the truth.
  std::size_t wrong = 0;
  /// Apnea alerts: the soak populations breathe without pauses.
  std::size_t apnea = 0;
  /// One line per wrong rate and per alert, for the failure message.
  std::string listing;
};

/// Tallies `event_log` for a soak population whose user u (1-based)
/// breathes at base_bpm + 1.5 * (u - 1).
inline VouchedTally tally_vouched(const std::vector<std::string>& event_log,
                                  double base_bpm) {
  constexpr double kToleranceBpm = 3.0;
  VouchedTally tally;
  for (const std::string& line : event_log) {
    double t = 0.0, rate = 0.0;
    unsigned long long user = 0;
    char kind[24] = {};
    int reliable = 0;
    if (std::sscanf(line.c_str(), "t=%lf user=%llu %23s rate=%lf reliable=%d",
                    &t, &user, kind, &rate, &reliable) != 5) {
      ADD_FAILURE() << "unparsed event line: " << line;
      continue;
    }
    const double truth = base_bpm + 1.5 * static_cast<double>(user - 1);
    if (std::string(kind) == "apnea-alert") {
      ++tally.apnea;
      tally.listing += "\n  " + line;
    } else if (std::string(kind) == "rate-update" && reliable == 1) {
      ++tally.vouched;
      if (std::abs(rate - truth) > kToleranceBpm) {
        ++tally.wrong;
        tally.listing += "\n  " + line + " truth=" + std::to_string(truth);
      }
    }
  }
  return tally;
}

}  // namespace tagbreathe::testutil
