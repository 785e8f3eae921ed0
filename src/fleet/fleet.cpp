#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/observability.hpp"

namespace tagbreathe::fleet {

namespace {

/// Finalizer-style mix: spreads consecutive user IDs across shards so
/// one ward's ID block does not pile onto one shard.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string index_label(char prefix, int width, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c%0*zu", prefix, width, i);
  return buf;
}

std::string shard_journal_directory(const std::string& root, std::size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard-%03zu", s);
  return root + buf;
}

// Shard-pool workers beside the pumping thread: shard_threads threads
// in all, never more than there are shards.
std::size_t shard_workers(const FleetConfig& config) {
  const std::size_t threads = std::min(config.shard_threads, config.n_shards);
  return threads > 1 ? threads - 1 : 0;
}

}  // namespace

const char* reader_health_name(ReaderHealth health) noexcept {
  switch (health) {
    case ReaderHealth::Up:
      return "Up";
    case ReaderHealth::Degraded:
      return "Degraded";
    case ReaderHealth::Dead:
      return "Dead";
  }
  return "Unknown";
}

void FleetConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("FleetConfig: " + what);
  };
  if (n_readers == 0) bad("n_readers must be positive");
  if (n_shards == 0) bad("n_shards must be positive");
  if (degraded_after_windows == 0) bad("degraded_after_windows must be positive");
  if (dead_after_windows <= degraded_after_windows)
    bad("dead_after_windows must exceed degraded_after_windows");
  if (!(rebalance_deadline_s > 0.0) || !std::isfinite(rebalance_deadline_s))
    bad("rebalance_deadline_s must be positive and finite");
  if (rebalance_batch == 0) bad("rebalance_batch must be positive");
  if (!(handoff_suppress_s >= 0.0) || !std::isfinite(handoff_suppress_s))
    bad("handoff_suppress_s must be non-negative and finite");
  ingest.validate();
  pipeline.validate();
  if (!durability_directory.empty()) {
    core::JournalConfig j = journal;
    j.directory = durability_directory;  // per-shard dirs derive from it
    j.validate();
  }
}

// ---------------------------------------------------------------------------
// ReaderFleet

ReaderFleet::ReaderFleet(FleetConfig config, EventCallback callback)
    : config_(std::move(config)),
      callback_(std::move(callback)),
      shard_pool_(shard_workers(config_)) {
  config_.validate();
  readers_.resize(config_.n_readers);
  for (ReaderSlot& slot : readers_) {
    slot.queue = std::make_unique<core::IngestQueue>(
        config_.ingest.queue_capacity, config_.ingest.policy);
    slot.validator = std::make_unique<core::ReadValidator>(config_.ingest);
  }
  shards_.resize(config_.n_shards);
  for (std::size_t s = 0; s < config_.n_shards; ++s) {
    shards_[s].pipeline = std::make_unique<core::RealtimePipeline>(
        config_.pipeline, [this, s](const core::PipelineEvent& event) {
          shards_[s].pending.push_back(FleetEvent{s, event});
        });
    if (!config_.durability_directory.empty()) {
      core::JournalConfig j = config_.journal;
      j.directory =
          shard_journal_directory(config_.durability_directory, s);
      shards_[s].journal = std::make_unique<core::JournalWriter>(j);
    }
  }
}

ReaderFleet::~ReaderFleet() = default;

core::EnqueueResult ReaderFleet::offer(std::size_t reader,
                                       const core::TagRead& read,
                                       double now_s) {
  if (reader >= readers_.size()) return core::EnqueueResult::Closed;
  return readers_[reader].queue->try_push(read, now_s);
}

void ReaderFleet::probe_reader(std::size_t reader, bool link_up,
                               double now_s) {
  if (reader >= readers_.size()) return;
  ReaderSlot& slot = readers_[reader];
  slot.link_up = link_up;
  if (link_up && slot.health == ReaderHealth::Dead) revive(reader, now_s);
}

std::size_t ReaderFleet::shard_of(std::uint64_t user_id) const noexcept {
  return static_cast<std::size_t>(splitmix64(user_id) %
                                  static_cast<std::uint64_t>(config_.n_shards));
}

ReaderHealth ReaderFleet::reader_health(std::size_t reader) const {
  return readers_.at(reader).health;
}

std::optional<std::size_t> ReaderFleet::covering_reader(
    std::uint64_t user_id) const {
  const std::size_t* reader = coverage_.find(user_id);
  if (reader == nullptr) return std::nullopt;
  return *reader;
}

std::size_t ReaderFleet::pending_rebalances() const noexcept {
  return pending_rebalance_.size();
}

std::size_t ReaderFleet::tracked_users() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.pipeline->tracked_users();
  return total;
}

std::size_t ReaderFleet::users_on_reader(std::size_t reader) const {
  return readers_.at(reader).users_assigned;
}

core::IngestQueueCounters ReaderFleet::reader_queue_counters(
    std::size_t reader) const {
  return readers_.at(reader).queue->counters();
}

const core::ValidationCounters& ReaderFleet::reader_validation(
    std::size_t reader) const {
  return readers_.at(reader).validator->counters();
}

const core::RealtimePipeline& ReaderFleet::shard_pipeline(
    std::size_t shard) const {
  return *shards_.at(shard).pipeline;
}

void ReaderFleet::set_coverage(std::uint64_t user, std::size_t reader) {
  if (std::size_t* covering = coverage_.find(user)) {
    if (*covering == reader) return;
    --readers_[*covering].users_assigned;
    *covering = reader;
  } else {
    coverage_[user] = reader;
  }
  ++readers_[reader].users_assigned;
}

void ReaderFleet::revive(std::size_t reader, double now_s) {
  ReaderSlot& slot = readers_[reader];
  slot.health = ReaderHealth::Up;
  slot.missed_windows = 0;
  slot.last_traffic_s = now_s;
  ++counters_.readers_revived;
}

void ReaderFleet::on_reader_dead(std::size_t reader, double now_s) {
  ReaderSlot& slot = readers_[reader];
  slot.health = ReaderHealth::Dead;
  ++counters_.readers_died;
  // Queue every covered user for reassignment, keeping the original
  // queue time if the user is already pending — a cascading second
  // death must not reset its deadline clock. Unordered sweep: insert
  // order into the pending set is invisible (process_rebalances works
  // off a sorted snapshot).
  coverage_.for_each([this, reader, now_s](const std::uint64_t& user,
                                           const std::size_t& covering) {
    if (covering == reader && !pending_rebalance_.contains(user))
      pending_rebalance_[user] = now_s;
  });
  // Forget the dead reader's stream sources: the next read of each
  // stream — from whichever reader hears it — starts a fresh source
  // without tripping duplicate suppression.
  sources_.erase_if([reader](const core::StreamKey&, const StreamSource& src) {
    return src.reader == reader;
  });
}

void ReaderFleet::park_user(std::uint64_t user) {
  Shard& shard = shards_[shard_of(user)];
  if (config_.parked_users_cap > 0 && parked_.size() < config_.parked_users_cap &&
      shard.pipeline->tracks(user) && !parked_.contains(user)) {
    parked_[user] = shard.pipeline->export_user(user);
    ++counters_.users_parked;
  }
  shard.pipeline->forget_user(user);
  if (const std::size_t* covering = coverage_.find(user)) {
    --readers_[*covering].users_assigned;
    coverage_.erase(user);
  }
  sources_.erase_if([user](const core::StreamKey& key, const StreamSource&) {
    return key.user_id == user;
  });
  pending_rebalance_.erase(user);
}

void ReaderFleet::restore_user(std::uint64_t user, double now_s) {
  Shard& shard = shards_[shard_of(user)];
  if (const core::DemuxState* parked = parked_.find(user)) {
    shard.pipeline->import_user(*parked);
    parked_.erase(user);
    ++counters_.users_restored;
    return;
  }
  if (shard.journal == nullptr) return;
  // Replay the user's window tail from the shard journal. Commit first
  // so the scanner sees everything appended this pump.
  shard.journal->commit();
  const double horizon = now_s - config_.pipeline.window_s;
  core::DemuxState state;
  std::size_t replayed = 0;
  core::scan_journal(
      shard_journal_directory(config_.durability_directory, shard_of(user)), 0,
      [&](const core::JournalRecord& record) {
        if (record.read.epc.user_id() != user) return;
        if (record.read.time_s < horizon) return;
        const core::StreamKey key{user, record.read.epc.tag_id(),
                                  record.read.antenna_id};
        auto stream = std::find_if(
            state.streams.begin(), state.streams.end(),
            [&key](const core::DemuxState::Stream& s) { return s.key == key; });
        if (stream == state.streams.end()) {
          state.streams.push_back(core::DemuxState::Stream{key, {}});
          stream = std::prev(state.streams.end());
        }
        stream->reads.push_back(record.read);
        ++replayed;
      });
  if (replayed == 0) return;
  shard.pipeline->import_user(state);
  ++counters_.journal_tail_replays;
  counters_.journal_reads_replayed += replayed;
}

void ReaderFleet::pump(double now_s) {
  admitted_scratch_.clear();

  // --- phase 1+2: drain, health ladder, validate ---------------------------
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    ReaderSlot& slot = readers_[r];
    drain_scratch_.clear();
    const std::size_t drained = slot.queue->drain(drain_scratch_, now_s);
    if (drained > 0) {
      slot.last_traffic_s = now_s;
      slot.missed_windows = 0;
      if (slot.health == ReaderHealth::Dead)
        revive(r, now_s);
      else
        slot.health = ReaderHealth::Up;
    } else if (slot.users_assigned > 0 || !slot.link_up) {
      // Silence only counts against a reader that is supposed to be
      // hearing someone (or whose link the supervisor reports down);
      // an idle spare sits at Up indefinitely.
      ++slot.missed_windows;
      if (slot.health != ReaderHealth::Dead) {
        if (slot.missed_windows >= config_.dead_after_windows)
          on_reader_dead(r, now_s);
        else if (slot.missed_windows >= config_.degraded_after_windows)
          slot.health = ReaderHealth::Degraded;
      }
    }
    for (core::TagRead read : drain_scratch_) {
      const auto verdict = slot.validator->admit(read);
      if (verdict.admitted) {
        ++counters_.admitted;
        admitted_scratch_.push_back(AdmittedRead{read, r});
      } else {
        ++counters_.quarantined;
      }
    }
    // Validator LRU evictions are fleet evictions when the evicting
    // reader covers the user: park its window so a later re-admission
    // or rebalance resumes warm.
    for (const std::uint64_t user : slot.validator->take_evicted_users()) {
      const std::size_t* covering = coverage_.find(user);
      if (covering != nullptr && *covering == r) park_user(user);
    }
  }

  // --- phase 3: merge, dedup/handoff, route --------------------------------
  // Stable sort on time: readers were drained in index order, so ties
  // resolve reader-ascending — deterministic for a fixed input.
  std::stable_sort(admitted_scratch_.begin(), admitted_scratch_.end(),
                   [](const AdmittedRead& a, const AdmittedRead& b) {
                     return a.read.time_s < b.read.time_s;
                   });
  for (const AdmittedRead& ar : admitted_scratch_) {
    const std::uint64_t user = ar.read.epc.user_id();
    const core::StreamKey key{user, ar.read.epc.tag_id(), ar.read.antenna_id};
    StreamSource* src = sources_.find(key);
    if (src == nullptr) {
      sources_[key] = StreamSource{ar.reader, ar.read.time_s};
      const std::size_t* cov = coverage_.find(user);
      if (cov == nullptr) {
        set_coverage(user, ar.reader);
      } else if (*cov != ar.reader &&
                 readers_[*cov].health == ReaderHealth::Dead) {
        // Organic failover: the covering reader died (its sources were
        // forgotten) and another reader picked the tag up before the
        // rebalancer got to it.
        set_coverage(user, ar.reader);
        ++counters_.handoffs;
        pending_rebalance_.erase(user);
      }
    } else if (src->reader != ar.reader) {
      if (ar.read.time_s - src->last_time_s < config_.handoff_suppress_s) {
        // Overlap duplicate: both readers heard one inventory round.
        ++counters_.handoff_suppressed;
        continue;
      }
      const std::size_t old_reader = src->reader;
      src->reader = ar.reader;
      src->last_time_s = ar.read.time_s;
      ++counters_.handoffs;
      const std::size_t* cov = coverage_.find(user);
      if (cov == nullptr || *cov == old_reader)
        set_coverage(user, ar.reader);
      pending_rebalance_.erase(user);
    } else {
      src->last_time_s = ar.read.time_s;
    }
    if (!parked_.empty()) {
      if (const core::DemuxState* parked = parked_.find(user)) {
        shards_[shard_of(user)].pipeline->import_user(*parked);
        parked_.erase(user);
        ++counters_.users_restored;
      }
    }
    if (!started_) {
      // Pin every shard to one update grid anchored at the first
      // admitted read fleet-wide (see the determinism contract).
      for (Shard& shard : shards_) shard.pipeline->start_at(ar.read.time_s);
      started_ = true;
    }
    Shard& shard = shards_[shard_of(user)];
    shard.batch.push_back(ar.read);
    ++shard.routed_total;
    ++counters_.routed;
    if (shard.journal != nullptr) shard.journal->append(ar.read);
  }

  // --- phase 4: rebalance backlog ------------------------------------------
  process_rebalances(now_s);

  // --- phase 5: shard execution --------------------------------------------
  execute_shards(now_s);

  // --- phase 6: deterministic merge ----------------------------------------
  merge_and_emit();

  publish_gauges();
}

void ReaderFleet::process_rebalances(double now_s) {
  if (pending_rebalance_.empty()) return;
  std::size_t moved = 0;
  // Sorted snapshot (for_each_ordered contract): the backlog drains in
  // ascending user order, and the per-pump batch bound makes that order
  // output-visible — WHICH users move this pump decides which shards
  // re-admit them — so the order must not depend on table layout.
  for (const std::uint64_t user : pending_rebalance_.sorted_keys()) {
    if (moved >= config_.rebalance_batch) break;
    const double queued_at = *pending_rebalance_.find(user);
    const std::size_t* cov = coverage_.find(user);
    if (cov == nullptr) {
      // User dropped (eviction) while queued — nothing left to move.
      pending_rebalance_.erase(user);
      continue;
    }
    if (readers_[*cov].health != ReaderHealth::Dead) {
      // Covering reader revived (or the user handed off organically).
      pending_rebalance_.erase(user);
      continue;
    }
    // Least-loaded live reader, ties to the lowest index.
    std::size_t target = config_.n_readers;
    for (std::size_t r = 0; r < config_.n_readers; ++r) {
      if (readers_[r].health == ReaderHealth::Dead) continue;
      if (target == config_.n_readers ||
          readers_[r].users_assigned < readers_[target].users_assigned)
        target = r;
    }
    if (target == config_.n_readers) break;  // whole fleet dead: retry later
    if (now_s - queued_at > config_.rebalance_deadline_s)
      ++counters_.rebalance_deadline_misses;
    set_coverage(user, target);
    if (!shards_[shard_of(user)].pipeline->tracks(user))
      restore_user(user, now_s);
    ++counters_.users_rebalanced;
    ++moved;
    pending_rebalance_.erase(user);
  }
  if (moved > 0) ++counters_.rebalances;
}

void ReaderFleet::execute_shards(double now_s) {
  // Latency observation rides the hub's injectable clock; hub->now() is
  // thread-safe, so pool workers observe too (the deterministic-clock
  // byte-stability gate runs shards serially, where the call sequence
  // is data-dependent only).
  shard_pool_.run(shards_.size(), [this, now_s](std::size_t index,
                                                std::size_t /*slot*/) {
    Shard& shard = shards_[index];
    const double t0 = obs_.hub != nullptr ? obs_.hub->now() : 0.0;
    for (const core::TagRead& read : shard.batch) shard.pipeline->push(read);
    shard.batch.clear();
    shard.pipeline->advance_to(now_s);
    if (obs_.hub != nullptr)
      obs_.shard_update_seconds[index]->observe(obs_.hub->now() - t0);
  });
  // Journal commits stay on the coordinator thread: appends (phase 3)
  // and commits never race the shard workers.
  for (Shard& shard : shards_) {
    if (shard.journal != nullptr) shard.journal->maybe_commit(now_s);
  }
}

void ReaderFleet::merge_and_emit() {
  merge_scratch_.clear();
  for (Shard& shard : shards_) {
    merge_scratch_.insert(merge_scratch_.end(), shard.pending.begin(),
                          shard.pending.end());
    shard.pending.clear();
  }
  // (time, user) order: a user lives on exactly one shard, so ties on
  // both keys come from one shard's pending vector and stable_sort
  // preserves its emission order — the merged stream is independent of
  // shard count and shard threading.
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const FleetEvent& a, const FleetEvent& b) {
                     if (a.event.time_s != b.event.time_s)
                       return a.event.time_s < b.event.time_s;
                     return a.event.user_id < b.event.user_id;
                   });
  const bool alarm_only = config_.alarm_only_above_users > 0 &&
                          tracked_users() > config_.alarm_only_above_users;
  for (const FleetEvent& fe : merge_scratch_) {
    if (alarm_only &&
        fe.event.kind == core::PipelineEventKind::RateUpdate) {
      ++counters_.rate_updates_suppressed;
      continue;
    }
    ++counters_.events;
    if (callback_) callback_(fe);
  }
}

void ReaderFleet::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  obs_.hub = &hub;
  collector_.bind(m, [this](obs::CounterSink& sink) {
    for (std::size_t r = 0; r < readers_.size(); ++r) {
      sink.emit("fleet_reader_reads_total", "reader", index_label('r', 3, r),
                readers_[r].queue->counters().drained);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      sink.emit("fleet_shard_routed_total", "shard", index_label('s', 2, s),
                shards_[s].routed_total);
    }
    sink.emit("fleet_admitted_total", counters_.admitted);
    sink.emit("fleet_quarantined_total", counters_.quarantined);
    sink.emit("fleet_handoffs_total", counters_.handoffs);
    sink.emit("fleet_handoff_suppressed_total", counters_.handoff_suppressed);
    sink.emit("fleet_readers_died_total", counters_.readers_died);
    sink.emit("fleet_readers_revived_total", counters_.readers_revived);
    sink.emit("fleet_users_rebalanced_total", counters_.users_rebalanced);
    sink.emit("fleet_rebalance_deadline_misses_total",
              counters_.rebalance_deadline_misses);
    sink.emit("fleet_events_total", counters_.events);
  });
  obs_.reader_health.resize(readers_.size());
  obs_.reader_users.resize(readers_.size());
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    const std::string label = index_label('r', 3, r);
    obs_.reader_health[r] = &m.gauge("fleet_reader_health", "reader", label);
    obs_.reader_users[r] = &m.gauge("fleet_reader_users", "reader", label);
  }
  obs_.shard_users.resize(shards_.size());
  obs_.shard_update_seconds.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string label = index_label('s', 2, s);
    obs_.shard_users[s] = &m.gauge("fleet_shard_users", "shard", label);
    obs_.shard_update_seconds[s] =
        &m.histogram("fleet_shard_update_latency_seconds",
                     obs::default_latency_bounds(), "shard", label);
  }
  obs_.pending_rebalance = &m.gauge("fleet_pending_rebalances");
  publish_gauges();
}

void ReaderFleet::publish_gauges() {
  if (obs_.hub == nullptr) return;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    obs_.reader_health[r]->set(static_cast<double>(readers_[r].health));
    obs_.reader_users[r]->set(
        static_cast<double>(readers_[r].users_assigned));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    obs_.shard_users[s]->set(
        static_cast<double>(shards_[s].pipeline->tracked_users()));
  }
  obs_.pending_rebalance->set(
      static_cast<double>(pending_rebalance_.size()));
}

}  // namespace tagbreathe::fleet
