#include "core/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/observability.hpp"

namespace tagbreathe::core {

const char* backpressure_policy_name(BackpressurePolicy policy) noexcept {
  switch (policy) {
    case BackpressurePolicy::Block: return "block";
    case BackpressurePolicy::DropOldest: return "drop-oldest";
    case BackpressurePolicy::Coalesce: return "coalesce";
    default: return "unknown-policy";
  }
}

const char* enqueue_result_name(EnqueueResult result) noexcept {
  switch (result) {
    case EnqueueResult::Enqueued: return "enqueued";
    case EnqueueResult::DroppedOldest: return "dropped-oldest";
    case EnqueueResult::Coalesced: return "coalesced";
    case EnqueueResult::WouldBlock: return "would-block";
    case EnqueueResult::Closed: return "closed";
    default: return "unknown-result";
  }
}

const char* quarantine_reason_name(QuarantineReason reason) noexcept {
  switch (reason) {
    case QuarantineReason::MalformedEpc: return "malformed-epc";
    case QuarantineReason::UnknownUser: return "unknown-user";
    case QuarantineReason::NonFiniteField: return "non-finite-field";
    case QuarantineReason::TimestampRegression: return "timestamp-regression";
    case QuarantineReason::DuplicateRead: return "duplicate-read";
    default: return "unknown-reason";
  }
}

void IngestConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("IngestConfig: " + what);
  };
  if (queue_capacity == 0) bad("queue_capacity must be positive");
  if (static_cast<std::size_t>(policy) >= kBackpressurePolicyCount)
    bad("policy out of range");
  if (!(repair_skew_s >= 0.0) || !std::isfinite(repair_skew_s))
    bad("repair_skew_s must be non-negative and finite");
  if (!(duplicate_window_s >= 0.0) || !std::isfinite(duplicate_window_s))
    bad("duplicate_window_s must be non-negative and finite");
}

// ---------------------------------------------------------------------------
// IngestQueue

IngestQueue::IngestQueue(std::size_t capacity, BackpressurePolicy policy)
    : policy_(policy), buffer_(capacity) {}

EnqueueResult IngestQueue::push_locked(const TagRead& read, double now_s) {
  if (closed_) {
    ++counters_.closed_rejects;
    return EnqueueResult::Closed;
  }
  // Under Coalesce a full queue gives up this stream's newest queued
  // read; otherwise (and with none queued) its oldest read.
  const auto same_stream = [user = read.epc.user_id(), tag = read.epc.tag_id(),
                             antenna = read.antenna_id](const Slot& slot) {
    return slot.read.epc.user_id() == user && slot.read.epc.tag_id() == tag &&
           slot.read.antenna_id == antenna;
  };
  const Slot slot{read, now_s};
  const common::Evicted evicted =
      policy_ == BackpressurePolicy::Coalesce
          ? buffer_.push(slot, same_stream)
          : buffer_.push(slot);
  ++counters_.enqueued;
  counters_.peak_depth = std::max(counters_.peak_depth, buffer_.size());
  if (depth_gauge_ != nullptr)
    depth_gauge_->set(static_cast<double>(buffer_.size()));
  if (evicted == common::Evicted::Match) {
    ++counters_.coalesced;
    return EnqueueResult::Coalesced;
  }
  if (evicted == common::Evicted::Oldest) {
    ++counters_.shed_oldest;
    return EnqueueResult::DroppedOldest;
  }
  return EnqueueResult::Enqueued;
}

EnqueueResult IngestQueue::push(const TagRead& read, double now_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (policy_ == BackpressurePolicy::Block && buffer_.full() && !closed_) {
    ++counters_.blocked_pushes;
    room_.wait(lock, [this] { return !buffer_.full() || closed_; });
  }
  return push_locked(read, now_s);
}

EnqueueResult IngestQueue::try_push(const TagRead& read, double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (policy_ == BackpressurePolicy::Block && buffer_.full() && !closed_) {
    ++counters_.would_block;
    return EnqueueResult::WouldBlock;
  }
  return push_locked(read, now_s);
}

std::size_t IngestQueue::drain(std::vector<TagRead>& out, double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = buffer_.size();
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    Slot slot = buffer_.pop_front();
    const double delay_s = std::max(0.0, now_s - slot.enqueued_at);
    counters_.queue_delay.record(delay_s);
    if (delay_histogram_ != nullptr) delay_histogram_->observe(delay_s);
    out.push_back(std::move(slot.read));
  }
  counters_.drained += n;
  if (depth_gauge_ != nullptr) depth_gauge_->set(0.0);
  if (n > 0) room_.notify_all();
  return n;
}

void IngestQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  room_.notify_all();
}

std::size_t IngestQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

IngestQueueCounters IngestQueue::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void IngestQueue::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    const IngestQueueCounters c = counters();
    sink.emit("ingest_queue_enqueued_total", c.enqueued);
    sink.emit("ingest_queue_shed_total", c.shed_oldest);
    sink.emit("ingest_queue_coalesced_total", c.coalesced);
    sink.emit("ingest_queue_would_block_total", c.would_block);
    sink.emit("ingest_queue_blocked_pushes_total", c.blocked_pushes);
    sink.emit("ingest_queue_closed_rejects_total", c.closed_rejects);
    sink.emit("ingest_queue_drained_total", c.drained);
  });
  // Locked only after collector_.bind: rebinding to another hub
  // retires the old collector, whose callback takes mutex_.
  std::lock_guard<std::mutex> lock(mutex_);
  depth_gauge_ = &m.gauge("ingest_queue_depth");
  delay_histogram_ =
      &m.histogram("ingest_queue_delay_seconds", obs::default_latency_bounds());
}

// ---------------------------------------------------------------------------
// ReadValidator

ReadValidator::ReadValidator(IngestConfig config)
    : config_(std::move(config)),
      last_admitted_s_(-std::numeric_limits<double>::infinity()) {
  config_.validate();
  std::sort(config_.monitored_users.begin(), config_.monitored_users.end());
}

ReadValidator::Verdict ReadValidator::quarantine(QuarantineReason reason) {
  ++counters_.quarantined_total;
  ++counters_.quarantined[static_cast<std::size_t>(reason)];
  return Verdict{false, false, reason};
}

void ReadValidator::touch_user(std::uint64_t user_id) {
  if (auto* pos = lru_index_.find(user_id)) {
    lru_order_.splice(lru_order_.end(), lru_order_, *pos);
    return;
  }
  lru_index_[user_id] = lru_order_.insert(lru_order_.end(), user_id);
  if (config_.max_users == 0 || lru_index_.size() <= config_.max_users)
    return;
  const std::uint64_t victim = lru_order_.front();
  lru_order_.pop_front();
  lru_index_.erase(victim);
  // Release the victim's per-stream state too, or the streams_ map
  // would keep growing across eviction churn.
  streams_.erase_if([victim](const LruKey& key, const StreamState&) {
    return key.user_id == victim;
  });
  pending_evictions_.push_back(victim);
  ++counters_.users_evicted;
}

std::vector<std::uint64_t> ReadValidator::take_evicted_users() {
  std::vector<std::uint64_t> out;
  out.swap(pending_evictions_);
  return out;
}

void ReadValidator::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    sink.emit("ingest_admitted_total", counters_.admitted);
    sink.emit("ingest_repaired_timestamps_total",
              counters_.repaired_timestamps);
    for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
      sink.emit("ingest_quarantined_total", "reason",
                quarantine_reason_name(static_cast<QuarantineReason>(i)),
                counters_.quarantined[i]);
    }
    sink.emit("ingest_users_evicted_total", counters_.users_evicted);
  });
  tracked_gauge_ = &m.gauge("ingest_tracked_users");
  tracked_gauge_->set(static_cast<double>(lru_index_.size()));
}

ReadValidator::Verdict ReadValidator::admit(TagRead& read) {
  if (!read_is_finite(read)) return quarantine(QuarantineReason::NonFiniteField);

  const std::uint64_t user = read.epc.user_id();
  const std::uint32_t tag = read.epc.tag_id();
  // Monitoring EPCs are written as nonzero user + nonzero tag (Fig. 9);
  // an all-zero field means the decode is not one of ours.
  if (user == 0 || tag == 0) return quarantine(QuarantineReason::MalformedEpc);
  if (!config_.monitored_users.empty() &&
      !std::binary_search(config_.monitored_users.begin(),
                          config_.monitored_users.end(), user))
    return quarantine(QuarantineReason::UnknownUser);

  // Timestamp discipline: the pipeline needs a non-decreasing stream.
  // Small regressions (reorder jitter, reader clock steps) are clamped
  // to the admission frontier; large ones are rejected outright.
  bool repaired = false;
  if (read.time_s < last_admitted_s_) {
    if (last_admitted_s_ - read.time_s > config_.repair_skew_s)
      return quarantine(QuarantineReason::TimestampRegression);
    read.time_s = last_admitted_s_;
    repaired = true;
  }

  const LruKey key{user, tag, read.antenna_id};
  const StreamState* stream = streams_.find(key);
  if (stream != nullptr &&
      std::abs(read.time_s - stream->last_time_s) <=
          config_.duplicate_window_s &&
      read.phase_rad == stream->last_phase_rad)
    return quarantine(QuarantineReason::DuplicateRead);

  streams_[key] = StreamState{read.time_s, read.phase_rad};
  last_admitted_s_ = read.time_s;
  touch_user(user);
  ++counters_.admitted;
  if (repaired) ++counters_.repaired_timestamps;
  if (tracked_gauge_ != nullptr)
    tracked_gauge_->set(static_cast<double>(lru_index_.size()));
  return Verdict{true, repaired, QuarantineReason::MalformedEpc};
}

ValidatorState ReadValidator::export_state() const {
  ValidatorState state;
  state.any_admitted = std::isfinite(last_admitted_s_);
  state.last_admitted_s = state.any_admitted ? last_admitted_s_ : 0.0;
  state.streams.reserve(streams_.size());
  // Ordered walk: the snapshot image must not depend on table layout.
  streams_.for_each_ordered([&state](const LruKey& key,
                                     const StreamState& stream) {
    state.streams.push_back(ValidatorState::Stream{
        key.user_id, key.tag_id, key.antenna_id, stream.last_time_s,
        stream.last_phase_rad});
  });
  state.lru_order.assign(lru_order_.begin(), lru_order_.end());
  return state;
}

void ReadValidator::import_state(const ValidatorState& state) {
  last_admitted_s_ = state.any_admitted
                         ? state.last_admitted_s
                         : -std::numeric_limits<double>::infinity();
  streams_.clear();
  for (const ValidatorState::Stream& s : state.streams) {
    streams_[LruKey{s.user_id, s.tag_id, s.antenna_id}] =
        StreamState{s.last_time_s, s.last_phase_rad};
  }
  lru_order_.clear();
  lru_index_.clear();
  for (const std::uint64_t user : state.lru_order)
    lru_index_[user] = lru_order_.insert(lru_order_.end(), user);
  pending_evictions_.clear();
}

// ---------------------------------------------------------------------------
// IngestFrontEnd

IngestFrontEnd::IngestFrontEnd(IngestConfig config, RealtimePipeline& pipeline)
    : queue_(config.queue_capacity, config.policy),
      validator_(config),  // ReadValidator runs config.validate()
      pipeline_(pipeline) {}

EnqueueResult IngestFrontEnd::offer(const TagRead& read, double now_s) {
  return queue_.try_push(read, now_s);
}

void IngestFrontEnd::bind_observability(obs::Observability& hub) {
  queue_.bind_observability(hub);
  validator_.bind_observability(hub);
}

std::size_t IngestFrontEnd::pump(double now_s) {
  scratch_.clear();
  queue_.drain(scratch_, now_s);
  std::size_t admitted = 0;
  for (TagRead& read : scratch_) {
    if (validator_.admit(read).admitted) {
      if (tap_) tap_(read);
      pipeline_.push(read);
      ++admitted;
    }
  }
  for (const std::uint64_t user : validator_.take_evicted_users())
    pipeline_.forget_user(user);
  pipeline_.advance_to(now_s);
  return admitted;
}

}  // namespace tagbreathe::core
