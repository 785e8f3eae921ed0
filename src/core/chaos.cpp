#include "core/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/units.hpp"

namespace tagbreathe::core {

void ChaosConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ChaosConfig: " + what);
  };
  const auto check_prob = [&](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0))
      bad(std::string(name) + " must be a probability in [0, 1]");
  };
  check_prob(dropout_prob, "dropout_prob");
  check_prob(duplicate_prob, "duplicate_prob");
  check_prob(reorder_prob, "reorder_prob");
  check_prob(skew_prob, "skew_prob");
  check_prob(epc_corrupt_prob, "epc_corrupt_prob");
  const auto check_dur = [&](double s, const char* name) {
    if (!(s >= 0.0) || !std::isfinite(s))
      bad(std::string(name) + " must be non-negative and finite");
  };
  check_dur(reorder_max_delay_s, "reorder_max_delay_s");
  check_dur(skew_max_s, "skew_max_s");
  check_dur(blackout_period_s, "blackout_period_s");
  check_dur(blackout_duration_s, "blackout_duration_s");
  check_dur(burst_period_s, "burst_period_s");
  if (blackout_period_s > 0.0 && blackout_duration_s >= blackout_period_s)
    bad("blackout_duration_s must be below blackout_period_s");
  if (reorder_prob > 0.0 && reorder_max_delay_s <= 0.0)
    bad("reorder_prob needs a positive reorder_max_delay_s");
}

ChaosConfig ChaosConfig::composite(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.dropout_prob = 0.02;
  cfg.duplicate_prob = 0.02;
  cfg.reorder_prob = 0.05;
  cfg.reorder_max_delay_s = 0.15;  // mostly inside the repair-skew band
  cfg.skew_prob = 0.01;
  cfg.skew_max_s = 1.0;  // some regressions beyond repair => quarantine
  cfg.epc_corrupt_prob = 0.01;
  cfg.blackout_period_s = 60.0;
  cfg.blackout_duration_s = 8.0;  // above the default signal_loss_s
  cfg.burst_period_s = 45.0;
  cfg.burst_copies = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// ChaosInjector

ChaosInjector::ChaosInjector(ChaosConfig config)
    : config_(config),
      rng_(config.seed),
      recent_(32),
      next_burst_s_(config.burst_period_s > 0.0
                        ? config.burst_period_s
                        : std::numeric_limits<double>::infinity()) {
  config_.validate();
}

bool ChaosInjector::in_blackout(double time_s) const noexcept {
  if (config_.blackout_period_s <= 0.0 || config_.blackout_duration_s <= 0.0)
    return false;
  const double into = std::fmod(time_s, config_.blackout_period_s);
  // The blackout window sits at the end of each period, so delivery
  // starts clean at t = 0.
  return into >= config_.blackout_period_s - config_.blackout_duration_s;
}

void ChaosInjector::deliver(const TagRead& read, std::vector<TagRead>& out) {
  out.push_back(read);
  ++stats_.total_out;
  recent_.push(read);
}

void ChaosInjector::release_due(double now_s, std::vector<TagRead>& out) {
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->deliver_at_s <= now_s) {
      deliver(it->read, out);
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosInjector::feed(const TagRead& read, std::vector<TagRead>& out) {
  release_due(read.time_s, out);
  ++stats_.total_in;

  // Burst overload fires on schedule even while individual reads drop.
  while (read.time_s >= next_burst_s_) {
    const std::size_t backlog = recent_.size();
    for (std::size_t copy = 0; copy < config_.burst_copies; ++copy) {
      for (std::size_t i = 0; i < backlog; ++i) {
        deliver(recent_[i], out);
        ++stats_.burst_injected;
      }
    }
    next_burst_s_ += config_.burst_period_s;
  }

  if (in_blackout(read.time_s)) {
    ++stats_.blackout_dropped;
    return;
  }
  if (config_.dropout_prob > 0.0 && rng_.bernoulli(config_.dropout_prob)) {
    ++stats_.dropped;
    return;
  }

  TagRead r = read;
  if (config_.skew_prob > 0.0 && rng_.bernoulli(config_.skew_prob)) {
    r.time_s += rng_.uniform(-config_.skew_max_s, config_.skew_max_s);
    ++stats_.skewed;
  }
  if (config_.epc_corrupt_prob > 0.0 &&
      rng_.bernoulli(config_.epc_corrupt_prob)) {
    auto bytes = r.epc.bytes();
    const int bit = rng_.uniform_int(0, 95);
    bytes[static_cast<std::size_t>(bit) / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    r.epc = rfid::Epc96(bytes);
    ++stats_.corrupted;
  }

  if (config_.reorder_prob > 0.0 && rng_.bernoulli(config_.reorder_prob)) {
    const double delay = rng_.uniform(0.0, config_.reorder_max_delay_s);
    delayed_.push_back(Delayed{read.time_s + delay, r});
    ++stats_.reordered;
    return;
  }

  deliver(r, out);
  if (config_.duplicate_prob > 0.0 && rng_.bernoulli(config_.duplicate_prob)) {
    deliver(r, out);
    ++stats_.duplicated;
  }
}

void ChaosInjector::flush(std::vector<TagRead>& out) {
  for (const Delayed& d : delayed_) deliver(d.read, out);
  delayed_.clear();
}

// ---------------------------------------------------------------------------
// Reader-scoped chaos

void ReaderChaosConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ReaderChaosConfig: " + what);
  };
  chaos.validate();
  for (const ReaderOutage& o : outages) {
    if (!(o.start_s >= 0.0) || !std::isfinite(o.start_s))
      bad("outage start_s must be non-negative and finite");
    if (!(o.duration_s > 0.0) || !std::isfinite(o.duration_s))
      bad("outage duration_s must be positive and finite");
  }
}

ReaderChaosConfig ReaderChaosConfig::blackout(std::size_t reader,
                                              double start_s,
                                              double duration_s,
                                              std::uint64_t seed) {
  ReaderChaosConfig cfg;
  cfg.reader = reader;
  cfg.chaos.seed = seed;
  cfg.outages.push_back(ReaderOutage{start_s, duration_s});
  return cfg;
}

ReaderChaosConfig ReaderChaosConfig::flap(std::size_t reader, double start_s,
                                          double up_s, double down_s,
                                          std::size_t cycles,
                                          std::uint64_t seed) {
  ReaderChaosConfig cfg;
  cfg.reader = reader;
  cfg.chaos.seed = seed;
  cfg.outages.reserve(cycles);
  for (std::size_t i = 0; i < cycles; ++i) {
    const double down_at =
        start_s + up_s + static_cast<double>(i) * (up_s + down_s);
    cfg.outages.push_back(ReaderOutage{down_at, down_s});
  }
  return cfg;
}

ReaderChaosConfig ReaderChaosConfig::burst_overload(std::size_t reader,
                                                    double period_s,
                                                    std::size_t copies,
                                                    std::uint64_t seed) {
  ReaderChaosConfig cfg;
  cfg.reader = reader;
  cfg.chaos.seed = seed;
  cfg.chaos.burst_period_s = period_s;
  cfg.chaos.burst_copies = copies;
  return cfg;
}

ReaderChaos::ReaderChaos(ReaderChaosConfig config)
    : config_(std::move(config)), injector_(config_.chaos) {
  config_.validate();
}

bool ReaderChaos::offline(double time_s) const noexcept {
  for (const ReaderOutage& o : config_.outages) {
    if (time_s >= o.start_s && time_s < o.start_s + o.duration_s) return true;
  }
  return false;
}

void ReaderChaos::feed(const TagRead& read, std::vector<TagRead>& out) {
  if (offline(read.time_s)) {
    ++outage_dropped_;
    return;
  }
  injector_.feed(read, out);
}

void ReaderChaos::flush(std::vector<TagRead>& out) { injector_.flush(out); }

// ---------------------------------------------------------------------------
// Soak harness

std::string format_soak_event(const PipelineEvent& event) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "t=%010.3f user=%03llu %s rate=%07.3f reliable=%d "
                "health=%s",
                event.time_s, static_cast<unsigned long long>(event.user_id),
                pipeline_event_name(event.kind), event.rate_bpm,
                event.reliable ? 1 : 0, signal_health_name(event.health));
  return std::string(line);
}

ReadStream make_soak_population(const SoakConfig& config) {
  // One read stream per (user, tag) on a staggered grid; the phase is a
  // breathing sinusoid on top of a per-tag static offset, matching what
  // the demux/preprocess layers expect from a real array.
  const std::size_t total_tags = config.n_users * config.tags_per_user;
  const double period = 1.0 / config.read_rate_hz;
  ReadStream clean;
  clean.reserve(static_cast<std::size_t>(config.duration_s *
                                         config.read_rate_hz) *
                    total_tags +
                total_tags);
  for (std::size_t u = 0; u < config.n_users; ++u) {
    const double f_hz =
        common::bpm_to_hz(config.base_rate_bpm + 1.5 * static_cast<double>(u));
    for (std::size_t tag = 0; tag < config.tags_per_user; ++tag) {
      const std::size_t slot = u * config.tags_per_user + tag;
      const double offset =
          period * static_cast<double>(slot) / static_cast<double>(total_tags);
      const double static_phase =
          1.1 + 0.7 * static_cast<double>(tag) + 0.3 * static_cast<double>(u);
      for (double t = offset; t <= config.duration_s; t += period) {
        TagRead read;
        read.time_s = t;
        read.epc = rfid::Epc96::from_user_tag(
            static_cast<std::uint64_t>(u + 1),
            static_cast<std::uint32_t>(tag + 1));
        read.antenna_id = 1;
        read.channel_index = 1;
        read.frequency_hz = 920.625e6;
        read.rssi_dbm = -55.0;
        read.phase_rad = common::wrap_phase_2pi(
            static_phase +
            0.35 * std::sin(common::kTwoPi * f_hz * t +
                            0.9 * static_cast<double>(slot)));
        clean.push_back(read);
      }
    }
  }
  std::stable_sort(clean.begin(), clean.end(),
                   [](const TagRead& a, const TagRead& b) {
                     return a.time_s < b.time_s;
                   });
  return clean;
}

SoakPlan make_soak_plan(const SoakConfig& config) {
  config.validate();
  SoakPlan plan;
  plan.roster.reserve(config.n_users);
  for (std::size_t u = 0; u < config.n_users; ++u)
    plan.roster.push_back(static_cast<std::uint64_t>(u + 1));
  plan.ingest = config.ingest;
  if (plan.ingest.monitored_users.empty())
    plan.ingest.monitored_users = plan.roster;
  plan.pipeline = config.pipeline;
  if (plan.pipeline.max_users == 0)
    plan.pipeline.max_users = plan.ingest.max_users;

  const ReadStream clean = make_soak_population(config);
  ChaosInjector injector(config.chaos);
  std::vector<TagRead> delivered;
  const auto offer_delivered = [&](double time_s) {
    for (const TagRead& r : delivered)
      plan.steps.push_back(SoakStep{time_s, false, r});
    delivered.clear();
  };
  const auto pump = [&](double time_s) {
    plan.steps.push_back(SoakStep{time_s, true, TagRead{}});
  };
  double next_pump = config.pump_period_s;
  for (const TagRead& read : clean) {
    injector.feed(read, delivered);
    offer_delivered(read.time_s);
    for (; read.time_s >= next_pump; next_pump += config.pump_period_s)
      pump(next_pump);
  }
  injector.flush(delivered);
  offer_delivered(config.duration_s);
  pump(config.duration_s);
  plan.chaos = injector.stats();
  return plan;
}

SoakInvariantSink::SoakInvariantSink(const SoakConfig& config,
                                     const SoakPlan& plan, SoakReport& report)
    : config_(config),
      plan_(plan),
      user_cap_(plan.pipeline.max_users > 0 ? plan.pipeline.max_users
                                            : config.n_users),
      report_(report),
      last_event_s_(-std::numeric_limits<double>::infinity()) {}

void SoakInvariantSink::violation(std::string line) {
  add_violation(report_.violations, std::move(line));
}

void SoakInvariantSink::on_event(const PipelineEvent& event) {
  ++report_.events;
  if (event.kind == PipelineEventKind::SignalLost)
    ++report_.signal_lost_events;
  if (event.kind == PipelineEventKind::SignalRecovered)
    ++report_.signal_recovered_events;

  if (event.time_s < last_event_s_)
    violation("non-monotonic event time at t=" + std::to_string(event.time_s));
  last_event_s_ = std::max(last_event_s_, event.time_s);
  report_.last_event_time_s = last_event_s_;

  if (!std::binary_search(plan_.roster.begin(), plan_.roster.end(),
                          event.user_id))
    violation("event for unadmitted user " + std::to_string(event.user_id) +
              " (quarantine breached)");

  report_.event_log.push_back(format_soak_event(event));
}

void SoakInvariantSink::after_pump(IngestFrontEnd& frontend) {
  const std::size_t tracked = frontend.pipeline().tracked_users();
  report_.peak_tracked_users = std::max(report_.peak_tracked_users, tracked);
  if (tracked > user_cap_)
    violation("tracked users " + std::to_string(tracked) + " exceed cap " +
              std::to_string(user_cap_));
  const std::size_t validator_cap = plan_.ingest.max_users;
  if (validator_cap > 0 && frontend.validator().tracked_users() > validator_cap)
    violation("validator user state exceeds cap");
}

void SoakInvariantSink::finish(IngestFrontEnd& frontend) {
  report_.chaos = plan_.chaos;
  report_.queue = frontend.queue_counters();
  report_.validation = frontend.validation();
  append_queue_invariant_violations(report_.queue, frontend.queue().capacity(),
                                    report_.violations);

  // SignalHealth vs injected gaps: a blackout longer than the loss
  // threshold must produce Lost transitions (and recoveries, since
  // delivery resumes).
  const ChaosConfig& chaos = config_.chaos;
  const bool long_blackouts =
      chaos.blackout_period_s > 0.0 &&
      chaos.blackout_duration_s >
          plan_.pipeline.signal_loss_s + plan_.pipeline.update_period_s &&
      config_.duration_s >= chaos.blackout_period_s;
  if (!long_blackouts) return;
  if (report_.signal_lost_events == 0)
    violation("blackouts above signal_loss_s produced no SignalLost");
  if (report_.signal_recovered_events == 0)
    violation("delivery resumed after blackouts but no SignalRecovered");
}

void SoakConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("SoakConfig: " + what);
  };
  if (n_users == 0) bad("n_users must be positive");
  if (tags_per_user == 0) bad("tags_per_user must be positive");
  if (!(duration_s > 0.0) || !std::isfinite(duration_s))
    bad("duration_s must be positive and finite");
  if (!(read_rate_hz > 0.0) || !std::isfinite(read_rate_hz))
    bad("read_rate_hz must be positive and finite");
  if (!(pump_period_s > 0.0) || !std::isfinite(pump_period_s))
    bad("pump_period_s must be positive and finite");
  ingest.validate();
  pipeline.validate();
  chaos.validate();
}

void add_violation(std::vector<std::string>& violations, std::string line) {
  constexpr std::size_t kMaxViolations = 50;
  if (violations.size() < kMaxViolations) {
    violations.push_back(std::move(line));
  } else if (violations.size() == kMaxViolations) {
    violations.push_back("... further violations suppressed");
  }
}

void append_queue_invariant_violations(const IngestQueueCounters& queue,
                                       std::size_t capacity,
                                       std::vector<std::string>& violations,
                                       const std::string& context) {
  if (queue.peak_depth > capacity)
    add_violation(violations, context + "queue depth exceeded capacity");
  // Conservation: every read accepted into the queue is either still
  // queued (none, after the final pump), drained, shed or coalesced.
  if (queue.enqueued !=
      queue.drained + queue.shed_oldest + queue.coalesced)
    add_violation(violations, context + "queue counter conservation broken");
}

SoakReport run_soak(const SoakConfig& config) {
  const SoakPlan plan = make_soak_plan(config);
  SoakReport report;
  SoakInvariantSink sink(config, plan, report);
  RealtimePipeline pipeline(plan.pipeline, [&](const PipelineEvent& event) {
    sink.on_event(event);
  });
  IngestFrontEnd frontend(plan.ingest, pipeline);
  if (config.observability != nullptr) {
    pipeline.bind_observability(*config.observability);
    frontend.bind_observability(*config.observability);
  }
  std::size_t next = 0;
  play_soak_steps(plan.steps, next, frontend,
                  [&] { sink.after_pump(frontend); });
  sink.finish(frontend);
  return report;
}

}  // namespace tagbreathe::core
