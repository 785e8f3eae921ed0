#include "telemetry/telemetry_soak.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

namespace tagbreathe::telemetry {

namespace {

using core::add_violation;

enum class Behaviour { Healthy, Slow, Flapping, Dead };

Behaviour behaviour_of(std::size_t i, const SubscriberSoakConfig& config) {
  if (config.dead_every != 0 && i % config.dead_every == 0)
    return Behaviour::Dead;
  if (config.flapping_every != 0 && i % config.flapping_every == 0)
    return Behaviour::Flapping;
  if (config.slow_every != 0 && i % config.slow_every == 0)
    return Behaviour::Slow;
  return Behaviour::Healthy;
}

/// Deterministic filter mix: a few full-stream dashboards, some
/// alarm-only pagers, ward stations and per-user bedside monitors.
FilterSpec filter_of(std::size_t i, std::size_t n_users,
                     std::size_t users_per_ward) {
  const std::size_t n_wards = (n_users + users_per_ward - 1) / users_per_ward;
  FilterSpec f;
  if (i % 16 == 0) {
    f.kind = FilterKind::All;
  } else if (i % 4 == 1) {
    f.kind = FilterKind::AlarmOnly;
  } else if (i % 2 == 0) {
    f.kind = FilterKind::Ward;
    f.id = (i / 2) % (n_wards == 0 ? 1 : n_wards);
  } else {
    f.kind = FilterKind::User;
    f.id = i % n_users + 1;
  }
  return f;
}

OverflowPolicy policy_of(std::size_t i) {
  switch (i % 3) {
    case 0: return OverflowPolicy::DropOldest;
    case 1: return OverflowPolicy::CoalescePerUser;
    default: return OverflowPolicy::Disconnect;
  }
}

}  // namespace

void SubscriberSoakConfig::validate() const {
  fleet.validate();
  service.validate();
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("SubscriberSoakConfig: " + what);
  };
  if (n_subscribers == 0) bad("n_subscribers must be positive");
  if (users_per_ward == 0) bad("users_per_ward must be positive");
  if (slow_stride == 0) bad("slow_stride must be positive");
  if (dead_at_fraction <= 0.0 || dead_at_fraction > 1.0)
    bad("dead_at_fraction must be in (0, 1]");
  if (!(flap_period_s > 0.0) || flap_on_s <= 0.0 ||
      flap_on_s >= flap_period_s)
    bad("flap window must satisfy 0 < flap_on_s < flap_period_s");
  if (!(client_heartbeat_period_s > 0.0))
    bad("client_heartbeat_period_s must be positive");
  if (fleet.event_tap || fleet.pump_tap)
    bad("fleet taps are owned by the harness; leave them empty");
}

SubscriberSoakReport run_subscriber_soak(const SubscriberSoakConfig& config) {
  config.validate();
  SubscriberSoakReport report;

  // --- baseline: the fleet alone, hash recorded ----------------------------
  if (config.verify_baseline) {
    fleet::FleetSoakConfig bare = config.fleet;
    bare.record_event_log = false;
    bare.observability = nullptr;
    const fleet::FleetSoakReport baseline = fleet::run_fleet_soak(bare);
    report.baseline_event_log_hash = baseline.event_log_hash;
  }

  // --- the tapped run ------------------------------------------------------
  const std::size_t users_per_ward = config.users_per_ward;
  TelemetryService service(
      config.service, [users_per_ward](std::uint64_t user) {
        return static_cast<std::uint32_t>((user - 1) / users_per_ward);
      });
  if (config.observability != nullptr)
    service.bind_observability(*config.observability);

  // Channels live for the whole run: the service may still hold a
  // pointer to a channel its client already abandoned (that is the
  // point of the heartbeat timeout).
  std::vector<std::unique_ptr<llrp::DuplexChannel>> channels;
  std::vector<std::unique_ptr<TelemetryClient>> clients;
  std::vector<Behaviour> behaviours;
  clients.reserve(config.n_subscribers);
  behaviours.reserve(config.n_subscribers);
  common::Rng seed_rng(config.seed);

  for (std::size_t i = 0; i < config.n_subscribers; ++i) {
    TelemetryClientConfig cc;
    cc.filter = filter_of(i, config.fleet.n_users, config.users_per_ward);
    cc.policy = policy_of(i);
    cc.heartbeat_period_s = config.client_heartbeat_period_s;
    cc.seed = seed_rng.engine()();
    TelemetryClient::DialFn dial = [&service, &channels](double now_s) {
      channels.push_back(std::make_unique<llrp::DuplexChannel>());
      llrp::ByteChannel* channel = channels.back().get();
      service.accept(*channel, now_s);
      return channel;
    };
    clients.push_back(
        std::make_unique<TelemetryClient>(cc, std::move(dial)));
    behaviours.push_back(behaviour_of(i, config));
  }

  const double dead_at_s = config.fleet.duration_s * config.dead_at_fraction;
  std::size_t pump_index = 0;
  const auto step_clients = [&](double t) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      switch (behaviours[i]) {
        case Behaviour::Healthy:
          break;
        case Behaviour::Slow:
          if (pump_index % config.slow_stride != 0) continue;
          break;
        case Behaviour::Flapping:
          if (std::fmod(t, config.flap_period_s) >= config.flap_on_s)
            continue;
          break;
        case Behaviour::Dead:
          if (t >= dead_at_s) continue;
          break;
      }
      clients[i]->step(t);
    }
  };

  fleet::FleetSoakConfig tapped = config.fleet;
  tapped.observability = config.observability;
  tapped.event_tap = [&service](const fleet::FleetEvent& fe) {
    service.bus().publish(static_cast<std::uint16_t>(fe.shard), fe.event);
  };
  tapped.pump_tap = [&](double t) {
    step_clients(t);
    service.pump(t);
    ++pump_index;
  };
  report.fleet = fleet::run_fleet_soak(tapped);

  // --- final flush: let live clients catch up, then shut down --------------
  const double end_s = config.fleet.duration_s;
  for (std::size_t round = 1; round <= 64; ++round) {
    const double t = end_s + config.fleet.pump_period_s *
                                 static_cast<double>(round);
    step_clients(t);
    service.pump(t);
    ++pump_index;
  }
  service.shutdown();
  report.bus = service.bus().counters();
  report.service = service.counters();

  // --- gates ---------------------------------------------------------------
  if (config.verify_baseline &&
      report.baseline_event_log_hash != report.fleet.event_log_hash)
    add_violation(report.violations,
                  "telemetry perturbed the fleet: event-log hash differs "
                  "from the no-telemetry baseline");
  if (report.bus.events_published != report.fleet.events)
    add_violation(report.violations,
                  "tap lost events: bus published " +
                      std::to_string(report.bus.events_published) +
                      " of " + std::to_string(report.fleet.events));

  service.bus().for_each_subscription(
      [&](std::uint64_t id, const FilterSpec&, SubscriberState,
          const SubscriptionCounters& c, std::size_t queued) {
        if (queued != 0)
          add_violation(report.violations,
                        "subscription " + std::to_string(id) +
                            " still queued after shutdown");
        if (c.published != c.delivered + c.dropped + c.coalesced)
          add_violation(
              report.violations,
              "conservation broken for subscription " + std::to_string(id) +
                  ": published=" + std::to_string(c.published) +
                  " delivered=" + std::to_string(c.delivered) +
                  " dropped=" + std::to_string(c.dropped) +
                  " coalesced=" + std::to_string(c.coalesced));
      });

  const std::uint64_t last_seq = service.bus().last_seq();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const TelemetryClient& client = *clients[i];
    const ClientCounters& cc = client.counters();
    report.client_delivered += cc.delivered;
    report.client_gap_dropped += cc.gap_dropped;
    report.client_replayed += cc.replayed;
    report.client_resume_gap += cc.resume_gap;
    report.client_dials += cc.dials;
    report.client_sheds_received += cc.sheds_received;
    report.client_ordering_violations += cc.ordering_violations;
    if (cc.ordering_violations != 0)
      add_violation(report.violations,
                    "client " + std::to_string(i) + " saw " +
                        std::to_string(cc.ordering_violations) +
                        " sequence-ordering violations");
    if (behaviours[i] == Behaviour::Healthy) {
      ++report.healthy_subscribers;
      // State check: shutdown() just shed everyone, so "alive at end"
      // means the client was Streaming going into shutdown — it has
      // not yet consumed the final Shed frame.
      if (client.state() == ClientState::Streaming)
        ++report.healthy_streaming_at_end;
      else
        add_violation(report.violations,
                      "healthy client " + std::to_string(i) +
                          " not streaming at end (state " +
                          std::string(client_state_name(client.state())) +
                          ")");
      // Only a full-stream subscriber sees every sequence; a healthy
      // one must be fully caught up after the flush rounds.
      if (filter_of(i, config.fleet.n_users, config.users_per_ward).kind ==
              FilterKind::All &&
          client.cursor() != last_seq)
        add_violation(report.violations,
                      "healthy full-stream client " + std::to_string(i) +
                          " not caught up: cursor " +
                          std::to_string(client.cursor()) + " of " +
                          std::to_string(last_seq));
    }
  }

  return report;
}

}  // namespace tagbreathe::telemetry
