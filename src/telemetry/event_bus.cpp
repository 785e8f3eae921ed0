#include "telemetry/event_bus.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/ring_buffer.hpp"
#include "obs/observability.hpp"

namespace tagbreathe::telemetry {

const char* subscriber_state_name(SubscriberState state) noexcept {
  switch (state) {
    case SubscriberState::Up: return "Up";
    case SubscriberState::Lagging: return "Lagging";
    case SubscriberState::Shed: return "Shed";
  }
  return "Unknown";
}

void EventBusConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("EventBusConfig: " + what);
  };
  if (queue_capacity == 0) bad("queue_capacity must be positive");
  if (lagging_above > queue_capacity)
    bad("lagging_above exceeds queue_capacity");
  if (effective_lagging_above() == 0)
    bad("lagging threshold degenerates to 0 (queue_capacity too small; "
        "set lagging_above explicitly)");
  if (effective_up_below() >= effective_lagging_above())
    bad("up_below must sit strictly below lagging_above (hysteresis)");
}

struct EventBus::Subscription {
  FilterSpec filter{};
  OverflowPolicy policy = OverflowPolicy::DropOldest;
  SubscriberState state = SubscriberState::Up;
  /// False once shed or gracefully closed; counters are frozen then.
  bool live = true;
  ShedReason shed_reason = ShedReason::SlowConsumer;
  std::size_t lagging_ticks = 0;
  SubscriptionCounters counters;
  /// Empty once shed or closed: a dead subscription holds no storage.
  std::optional<common::RingBuffer<TelemetryEvent>> queue;
  std::size_t queued() const { return queue ? queue->size() : 0; }
  /// Events shed from this queue since the last drain — surfaced to the
  /// consumer as a Gap frame ahead of the next delivery.
  std::uint64_t pending_gap_dropped = 0;
};

EventBus::EventBus(EventBusConfig config, WardFn ward_of)
    : config_(config), ward_of_(std::move(ward_of)) {
  config_.validate();
  ring_.resize(config_.replay_ring_capacity);
}

EventBus::~EventBus() = default;

bool EventBus::filter_matches(const FilterSpec& filter,
                              const TelemetryEvent& event) const {
  switch (filter.kind) {
    case FilterKind::All:
      return true;
    case FilterKind::User:
      return event.user_id == filter.id;
    case FilterKind::Ward:
      return (ward_of_ ? ward_of_(event.user_id) : 0u) == filter.id;
    case FilterKind::AlarmOnly:
      return event.kind != core::PipelineEventKind::RateUpdate;
  }
  return false;
}

void EventBus::offer_locked(Subscription& sub, const TelemetryEvent& event,
                            bool replay) {
  ++sub.counters.published;
  if (replay) {
    ++sub.counters.replayed;
    ++counters_.replayed_events;
  }
  common::RingBuffer<TelemetryEvent>& queue = *sub.queue;
  if (sub.policy == OverflowPolicy::Disconnect && queue.full()) {
    // The incoming event is part of the shed spill.
    ++sub.counters.dropped;
    ++counters_.fanout_dropped;
    shed_locked(sub, ShedReason::Overflow);
    return;
  }
  // Under CoalescePerUser a full queue gives up the user's newest
  // queued rate (alarms never coalesce); otherwise, and with none
  // queued, its oldest event. Either way the queue stays in sequence
  // order, so delivered sequence numbers stay monotonic.
  const auto same_user_rate = [&event](const TelemetryEvent& held) {
    return held.kind == core::PipelineEventKind::RateUpdate &&
           held.user_id == event.user_id;
  };
  const common::Evicted evicted =
      sub.policy == OverflowPolicy::CoalescePerUser &&
              event.kind == core::PipelineEventKind::RateUpdate
          ? queue.push(event, same_user_rate)
          : queue.push(event);
  ++counters_.fanout_enqueued;
  if (evicted == common::Evicted::Match) {
    ++sub.counters.coalesced;
    ++counters_.fanout_coalesced;
  } else if (evicted == common::Evicted::Oldest) {
    ++sub.counters.dropped;
    ++counters_.fanout_dropped;
    ++sub.pending_gap_dropped;
  }
}

void EventBus::close_locked(Subscription& sub) {
  const std::size_t backlog = sub.queue->size();
  sub.counters.dropped += backlog;
  counters_.fanout_dropped += backlog;
  sub.queue.reset();
  sub.live = false;
}

void EventBus::shed_locked(Subscription& sub, ShedReason reason) {
  if (!sub.live) return;
  close_locked(sub);
  sub.state = SubscriberState::Shed;
  sub.shed_reason = reason;
  ++counters_.sheds[static_cast<std::size_t>(reason)];
}

std::uint64_t EventBus::subscribe(const FilterSpec& filter,
                                  OverflowPolicy policy,
                                  std::uint64_t resume_cursor,
                                  ResumeResult* resume) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_subscription_id_++;
  auto sub = std::make_unique<Subscription>();
  sub->filter = filter;
  sub->policy = policy;
  sub->queue.emplace(config_.queue_capacity);
  ++counters_.subscribes;

  ResumeResult rr;
  rr.next_seq = last_seq_ + 1;
  if (resume_cursor > 0) {
    ++counters_.resumes;
    // A cursor ahead of the stream is a protocol anomaly; clamp it so
    // the arithmetic below stays in-range.
    const std::uint64_t cursor = std::min(resume_cursor, last_seq_);
    const std::size_t cap = config_.replay_ring_capacity;
    if (cap == 0) {
      rr.gap = last_seq_ - cursor;
    } else {
      const std::uint64_t oldest =
          last_seq_ > cap ? last_seq_ - cap + 1 : 1;
      const std::uint64_t replay_from = std::max(cursor + 1, oldest);
      rr.gap = replay_from - (cursor + 1);
      for (std::uint64_t seq = replay_from; seq <= last_seq_; ++seq) {
        // A Disconnect-policy subscription can be shed by its own
        // replay overflowing; a dead subscription takes no more offers.
        if (!sub->live) break;
        const TelemetryEvent& event = ring_[(seq - 1) % cap];
        if (filter_matches(filter, event)) offer_locked(*sub, event, true);
      }
    }
    counters_.gap_sequences += rr.gap;
  }
  rr.replayed = sub->counters.replayed;
  if (resume != nullptr) *resume = rr;
  subscriptions_.emplace(id, std::move(sub));
  return id;
}

void EventBus::unsubscribe(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end() || !it->second->live) return;
  close_locked(*it->second);
  ++counters_.unsubscribes;
}

void EventBus::shed(std::uint64_t id, ShedReason reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscriptions_.find(id);
  if (it != subscriptions_.end()) shed_locked(*it->second, reason);
}

void EventBus::publish(std::uint16_t shard, const core::PipelineEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.events_published;
  const std::uint64_t seq = ++last_seq_;
  const TelemetryEvent te = make_event(seq, shard, event);
  if (!ring_.empty()) ring_[(seq - 1) % ring_.size()] = te;
  for (auto& [id, sub] : subscriptions_) {
    (void)id;
    if (!sub->live) continue;
    if (filter_matches(sub->filter, te)) {
      offer_locked(*sub, te, false);
    } else {
      ++counters_.filtered_out;
    }
  }
}

void EventBus::tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t lagging_above = config_.effective_lagging_above();
  const std::size_t up_below = config_.effective_up_below();
  for (auto& [id, sub] : subscriptions_) {
    (void)id;
    if (!sub->live) continue;
    const std::size_t backlog = sub->queue->size();
    if (sub->state == SubscriberState::Up) {
      if (backlog >= lagging_above) {
        sub->state = SubscriberState::Lagging;
        sub->lagging_ticks = 1;
      }
    } else if (sub->state == SubscriberState::Lagging) {
      if (backlog <= up_below) {
        sub->state = SubscriberState::Up;
        sub->lagging_ticks = 0;
      } else {
        ++sub->lagging_ticks;
      }
    }
    if (sub->state == SubscriberState::Lagging &&
        config_.shed_after_lagging_ticks > 0 &&
        sub->lagging_ticks >= config_.shed_after_lagging_ticks) {
      shed_locked(*sub, ShedReason::SlowConsumer);
    }
  }
  publish_gauges_locked();
}

EventBus::DrainResult EventBus::drain(std::uint64_t id,
                                      std::vector<TelemetryEvent>& out,
                                      std::size_t max_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  DrainResult result;
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    result.shed = true;
    return result;
  }
  Subscription& sub = *it->second;
  if (!sub.live) {
    result.shed = true;
    result.shed_reason = sub.shed_reason;
    return result;
  }
  common::RingBuffer<TelemetryEvent>& queue = *sub.queue;
  if (sub.pending_gap_dropped > 0) {
    result.gap_dropped = sub.pending_gap_dropped;
    result.gap_next_seq = queue.empty() ? last_seq_ + 1 : queue.front().seq;
    sub.pending_gap_dropped = 0;
  }
  while (result.delivered < max_events && !queue.empty()) {
    out.push_back(queue.pop_front());
    ++sub.counters.delivered;
    ++result.delivered;
  }
  return result;
}

SubscriberState EventBus::state(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? SubscriberState::Shed
                                    : it->second->state;
}

SubscriptionCounters EventBus::subscription_counters(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? SubscriptionCounters{}
                                    : it->second->counters;
}

std::size_t EventBus::queued(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subscriptions_.find(id);
  return it == subscriptions_.end() ? 0 : it->second->queued();
}

void EventBus::for_each_subscription(
    const std::function<void(std::uint64_t, const FilterSpec&,
                             SubscriberState, const SubscriptionCounters&,
                             std::size_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, sub] : subscriptions_)
    fn(id, sub->filter, sub->state, sub->counters, sub->queued());
}

BusCounters EventBus::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t EventBus::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_seq_;
}

std::size_t EventBus::subscriptions_in(SubscriberState state) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, sub] : subscriptions_) {
    (void)id;
    if (state == SubscriberState::Shed
            ? sub->state == SubscriberState::Shed
            : (sub->live && sub->state == state))
      ++n;
  }
  return n;
}

std::size_t EventBus::live_subscriptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, sub] : subscriptions_) {
    (void)id;
    if (sub->live) ++n;
  }
  return n;
}

void EventBus::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    const BusCounters c = counters();
    sink.emit("telemetry_events_published_total", c.events_published);
    sink.emit("telemetry_fanout_enqueued_total", c.fanout_enqueued);
    sink.emit("telemetry_fanout_dropped_total", c.fanout_dropped);
    sink.emit("telemetry_fanout_coalesced_total", c.fanout_coalesced);
    sink.emit("telemetry_fanout_filtered_total", c.filtered_out);
    sink.emit("telemetry_subscribes_total", c.subscribes);
    sink.emit("telemetry_resumes_total", c.resumes);
    sink.emit("telemetry_replayed_events_total", c.replayed_events);
    sink.emit("telemetry_resume_gap_sequences_total", c.gap_sequences);
    for (std::size_t r = 0; r < kShedReasonCount; ++r) {
      sink.emit("telemetry_sheds_total", "reason",
                shed_reason_name(static_cast<ShedReason>(r)), c.sheds[r]);
    }
  });
  // Locked only after collector_.bind: rebinding to another hub
  // retires the old collector, whose callback takes mutex_.
  std::lock_guard<std::mutex> lock(mutex_);
  obs_.hub = &hub;
  for (std::size_t s = 0; s < kSubscriberStateCount; ++s)
    obs_.subscribers[s] = &m.gauge(
        "telemetry_subscribers", "state",
        subscriber_state_name(static_cast<SubscriberState>(s)));
  obs_.ring_seq = &m.gauge("telemetry_last_seq");
  publish_gauges_locked();
}

void EventBus::publish_gauges_locked() {
  if (obs_.hub == nullptr) return;
  std::size_t by_state[kSubscriberStateCount] = {};
  for (const auto& [id, sub] : subscriptions_) {
    (void)id;
    if (sub->state == SubscriberState::Shed)
      ++by_state[static_cast<std::size_t>(SubscriberState::Shed)];
    else if (sub->live)
      ++by_state[static_cast<std::size_t>(sub->state)];
  }
  for (std::size_t s = 0; s < kSubscriberStateCount; ++s)
    obs_.subscribers[s]->set(static_cast<double>(by_state[s]));
  obs_.ring_seq->set(static_cast<double>(last_seq_));
}

}  // namespace tagbreathe::telemetry
