#include "fleet/fleet_soak.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/fnv.hpp"

namespace tagbreathe::fleet {

using core::add_violation;

void FleetSoakConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("FleetSoakConfig: " + what);
  };
  if (n_readers == 0) bad("n_readers must be positive");
  if (n_users == 0) bad("n_users must be positive");
  if (tags_per_user == 0) bad("tags_per_user must be positive");
  if (!(duration_s > 0.0) || !std::isfinite(duration_s))
    bad("duration_s must be positive and finite");
  if (!(read_rate_hz > 0.0) || !std::isfinite(read_rate_hz))
    bad("read_rate_hz must be positive and finite");
  if (!(pump_period_s > 0.0) || !std::isfinite(pump_period_s))
    bad("pump_period_s must be positive and finite");
  if (roaming_users > n_users) bad("roaming_users exceeds n_users");
  if (roaming_users > 0 &&
      (!(roam_period_s > 0.0) || !std::isfinite(roam_period_s)))
    bad("roam_period_s must be positive and finite");
  for (const core::ReaderChaosConfig& rc : reader_chaos) {
    rc.validate();
    if (rc.reader >= n_readers)
      bad("reader_chaos entry names reader beyond n_readers");
  }
}

FleetSoakReport run_fleet_soak(const FleetSoakConfig& config) {
  config.validate();
  FleetSoakReport report;
  report.event_log_hash = common::kFnvOffset;

  std::vector<std::uint64_t> roster;
  roster.reserve(config.n_users);
  for (std::size_t u = 0; u < config.n_users; ++u)
    roster.push_back(static_cast<std::uint64_t>(u + 1));

  FleetConfig fc = config.fleet;
  fc.n_readers = config.n_readers;
  if (fc.ingest.monitored_users.empty()) fc.ingest.monitored_users = roster;

  // --- merged-event sink + invariants --------------------------------------
  double last_event_s = -std::numeric_limits<double>::infinity();
  std::vector<double> last_rate(config.n_users + 1,
                                -std::numeric_limits<double>::infinity());
  ReaderFleet fleet(fc, [&](const FleetEvent& fe) {
    const core::PipelineEvent& event = fe.event;
    ++report.events;
    if (event.time_s < last_event_s)
      add_violation(report.violations, "non-monotonic merged event time at t=" +
                                          std::to_string(event.time_s));
    last_event_s = std::max(last_event_s, event.time_s);
    report.last_event_time_s = last_event_s;
    if (!std::binary_search(roster.begin(), roster.end(), event.user_id))
      add_violation(report.violations,
                    "event for unadmitted user " +
                        std::to_string(event.user_id) +
                        " (quarantine breached)");
    if (event.kind == core::PipelineEventKind::RateUpdate &&
        event.user_id <= config.n_users)
      last_rate[event.user_id] = event.time_s;
    const std::string line = core::format_soak_event(event);
    report.event_log_hash = common::fnv1a_line(report.event_log_hash, line);
    if (config.record_event_log) report.event_log.push_back(line);
    if (config.event_tap) config.event_tap(fe);
  });
  if (config.observability != nullptr)
    fleet.bind_observability(*config.observability);

  // --- per-reader chaos ----------------------------------------------------
  std::vector<std::unique_ptr<core::ReaderChaos>> chaos(config.n_readers);
  for (const core::ReaderChaosConfig& rc : config.reader_chaos)
    chaos[rc.reader] = std::make_unique<core::ReaderChaos>(rc);
  const auto offline = [&](std::size_t reader, double t) {
    return chaos[reader] != nullptr && chaos[reader]->offline(t);
  };

  // --- clean population (same generator as the single-reader soaks) -------
  core::SoakConfig pop;
  pop.n_users = config.n_users;
  pop.tags_per_user = config.tags_per_user;
  pop.duration_s = config.duration_s;
  pop.read_rate_hz = config.read_rate_hz;
  pop.base_rate_bpm = config.base_rate_bpm;
  const core::ReadStream clean = core::make_soak_population(pop);

  // --- roaming script ------------------------------------------------------
  const auto scripted_reader = [&](std::uint64_t user,
                                   double t) -> std::size_t {
    const std::size_t home =
        static_cast<std::size_t>(user - 1) % config.n_readers;
    if (user - 1 < config.roaming_users) {
      const auto hops = static_cast<std::size_t>(t / config.roam_period_s);
      return (home + hops) % config.n_readers;
    }
    return home;
  };
  struct RoamState {
    std::size_t reader = 0;
    std::size_t prev = 0;
    std::size_t overlap_left = 0;
  };
  std::vector<RoamState> roam(config.n_users + 1);
  for (std::size_t u = 1; u <= config.n_users; ++u) {
    roam[u].reader = scripted_reader(u, 0.0);
    roam[u].prev = roam[u].reader;
  }

  // --- drive ---------------------------------------------------------------
  std::vector<core::TagRead> delivered;
  std::size_t all_dark_dropped = 0;
  const auto deliver_to = [&](std::size_t reader, const core::TagRead& read,
                              double now_s) {
    delivered.clear();
    if (chaos[reader] != nullptr) {
      chaos[reader]->feed(read, delivered);
    } else {
      delivered.push_back(read);
    }
    for (const core::TagRead& d : delivered) fleet.offer(reader, d, now_s);
  };
  const auto do_pump = [&](double t) {
    for (std::size_t r = 0; r < config.n_readers; ++r)
      fleet.probe_reader(r, !offline(r, t), t);
    fleet.pump(t);
    if (config.pump_tap) config.pump_tap(t);
  };

  double next_pump = config.pump_period_s;
  for (const core::TagRead& read : clean) {
    while (read.time_s >= next_pump) {
      do_pump(next_pump);
      next_pump += config.pump_period_s;
    }
    const std::uint64_t user = read.epc.user_id();
    const std::size_t scripted = scripted_reader(user, read.time_s);
    RoamState& rs = roam[user];
    if (scripted != rs.reader) {
      rs.prev = rs.reader;
      rs.reader = scripted;
      rs.overlap_left = config.roam_overlap_reads;
    }
    // Physical failover: antennas overlap, so a tag scripted to an
    // offline reader is heard by the next live one instead.
    std::size_t target = scripted;
    for (std::size_t probed = 0;
         probed < config.n_readers && offline(target, read.time_s); ++probed)
      target = (target + 1) % config.n_readers;
    if (offline(target, read.time_s)) {
      ++all_dark_dropped;  // whole fleet dark
      continue;
    }
    deliver_to(target, read, read.time_s);
    if (rs.overlap_left > 0) {
      --rs.overlap_left;
      // Overlap zone: the previous reader still hears the tag for the
      // first few reads after a hop — duplicate delivery.
      if (rs.prev != target && !offline(rs.prev, read.time_s))
        deliver_to(rs.prev, read, read.time_s);
    }
  }
  for (std::size_t r = 0; r < config.n_readers; ++r) {
    if (chaos[r] == nullptr) continue;
    delivered.clear();
    chaos[r]->flush(delivered);
    for (const core::TagRead& d : delivered)
      fleet.offer(r, d, config.duration_s);
  }
  do_pump(config.duration_s);

  // --- post-run invariants -------------------------------------------------
  report.counters = fleet.counters();
  report.outage_dropped = all_dark_dropped;
  std::size_t sum_drained = 0;
  for (std::size_t r = 0; r < config.n_readers; ++r) {
    if (chaos[r] != nullptr)
      report.outage_dropped += chaos[r]->outage_dropped();
    const core::IngestQueueCounters queue = fleet.reader_queue_counters(r);
    sum_drained += queue.drained;
    core::append_queue_invariant_violations(
        queue, fc.ingest.queue_capacity, report.violations,
        "reader " + std::to_string(r) + ": ");
  }
  if (sum_drained !=
      report.counters.admitted + report.counters.quarantined)
    add_violation(report.violations,
                  "fleet admission conservation broken: drained=" +
                      std::to_string(sum_drained) + " admitted=" +
                      std::to_string(report.counters.admitted) +
                      " quarantined=" +
                      std::to_string(report.counters.quarantined));
  if (report.counters.admitted !=
      report.counters.routed + report.counters.handoff_suppressed)
    add_violation(report.violations,
                  "fleet routing conservation broken: admitted=" +
                      std::to_string(report.counters.admitted) + " routed=" +
                      std::to_string(report.counters.routed) +
                      " suppressed=" +
                      std::to_string(report.counters.handoff_suppressed));
  if (report.counters.rebalance_deadline_misses > 0)
    add_violation(report.violations,
                  "rebalance deadline missed " +
                      std::to_string(
                          report.counters.rebalance_deadline_misses) +
                      " times");
  bool any_alive = false;
  for (std::size_t r = 0; r < config.n_readers; ++r)
    any_alive = any_alive || fleet.reader_health(r) != ReaderHealth::Dead;
  if (any_alive && fleet.pending_rebalances() > 0)
    add_violation(report.violations,
                  "rebalance backlog not drained: " +
                      std::to_string(fleet.pending_rebalances()) +
                      " users still pending");

  // No admitted user silently lost: every roster user still produced a
  // RateUpdate in the final tail window. Only meaningful once the run
  // is long enough to warm up and when alarm-only mode never engaged.
  const double tail_start = config.duration_s -
                            3.0 * fc.pipeline.update_period_s -
                            config.pump_period_s;
  if (tail_start > fc.pipeline.warmup_s &&
      report.counters.rate_updates_suppressed == 0) {
    for (std::size_t u = 1; u <= config.n_users; ++u) {
      if (last_rate[u] < tail_start)
        add_violation(
            report.violations,
            "user " + std::to_string(u) + " lost: last rate update at t=" +
                std::to_string(last_rate[u]) + " (tail starts t=" +
                std::to_string(tail_start) + ")");
    }
  }

  return report;
}

}  // namespace tagbreathe::fleet
