// Backpressure-hardened event fan-out (ISSUE 7 tentpole core).
//
// The EventBus sits between the ReaderFleet's merged event stream and
// thousands of subscribers, applying the same distrustful discipline
// the ingest side applies to readers — but pointed the other way: a
// misbehaving *consumer* must never be able to stall or starve the
// pipeline. Concretely:
//
// - publish() does bounded, non-blocking work per active subscription:
//   one filter check, and at most one bounded-queue mutation. Filters
//   (per-user, per-ward, alarm-only) are evaluated at enqueue time, so
//   work for a narrow subscriber is never done only to be shed later.
// - Every subscription owns a bounded SPSC queue (producer = the bus on
//   the coordinator thread, consumer = the connection writer) with a
//   configurable overflow policy: drop-oldest, coalesce-per-user (the
//   user's newest queued rate leaves, the new one joins at the back;
//   alarms never coalesce), or disconnect (the subscriber is shed
//   outright). The queue is a common::RingBuffer, whose push is the one
//   overflow rule it shares with the ingest queue.
// - A per-subscriber Up -> Lagging -> Shed ladder mirrors the fleet's
//   reader ladder: backlog above `lagging_above` marks a subscriber
//   Lagging (with hysteresis via `up_below`); a subscriber that stays
//   Lagging for `shed_after_lagging_ticks` consecutive ticks is shed as
//   a slow consumer.
// - Resume cursors: every event carries a monotonic sequence number and
//   the bus retains a bounded replay ring. A reconnecting subscriber
//   presents its last delivered sequence and replays only its gap; a
//   client away longer than the ring learns the exact count of
//   irrecoverably missed sequences instead of silently losing them.
//
// Conservation law, enforced by tests and the subscriber soak: for
// every subscription, at every quiescent point,
//
//   published == delivered + dropped + coalesced + queued
//
// and once a subscription is shed or closed (queued -> dropped),
//
//   published == delivered + dropped + coalesced.
//
// Threading: the bus is MT-safe behind one mutex (the TSan suite
// hammers publish against racing drains); every operation is
// lock-bounded and non-blocking — nothing ever waits on a consumer.
// Under the single-threaded soak harnesses the mutex is uncontended
// and the bus is fully deterministic in stream time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/registry.hpp"
#include "telemetry/wire.hpp"

namespace tagbreathe::obs {
class Observability;
}  // namespace tagbreathe::obs

namespace tagbreathe::telemetry {

enum class SubscriberState : std::uint8_t {
  Up = 0,
  Lagging = 1,
  Shed = 2,
};
inline constexpr std::size_t kSubscriberStateCount = 3;
const char* subscriber_state_name(SubscriberState state) noexcept;

struct EventBusConfig {
  /// Bounded per-subscription queue depth (events).
  std::size_t queue_capacity = 256;
  /// Replay ring depth (events) backing resume cursors. 0 disables
  /// replay: every resume reports its whole gap as missed.
  std::size_t replay_ring_capacity = 4096;
  /// Backlog at or above this marks a subscription Lagging. 0 derives
  /// queue_capacity / 2.
  std::size_t lagging_above = 0;
  /// Backlog at or below this restores Up (hysteresis; must sit below
  /// lagging_above). 0 derives queue_capacity / 4.
  std::size_t up_below = 0;
  /// Consecutive Lagging ticks before the subscriber is shed as a slow
  /// consumer. 0 = never shed by lag alone (overflow policy still
  /// applies).
  std::size_t shed_after_lagging_ticks = 0;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;

  std::size_t effective_lagging_above() const noexcept {
    return lagging_above != 0 ? lagging_above : queue_capacity / 2;
  }
  std::size_t effective_up_below() const noexcept {
    return up_below != 0 ? up_below : queue_capacity / 4;
  }
};

/// Per-subscription accounting (the conservation-law operands).
struct SubscriptionCounters {
  std::uint64_t published = 0;  // filter-matching events offered while live
  std::uint64_t delivered = 0;  // events handed to the consumer via drain
  std::uint64_t dropped = 0;    // shed from the queue (overflow / shed)
  std::uint64_t coalesced = 0;  // absorbed into a newer same-user rate
  std::uint64_t replayed = 0;   // of published: resume-cursor ring replays
};

/// Bus-wide totals.
struct BusCounters {
  std::uint64_t events_published = 0;   // publish() calls
  std::uint64_t fanout_enqueued = 0;    // events placed on some queue
  std::uint64_t fanout_dropped = 0;
  std::uint64_t fanout_coalesced = 0;
  std::uint64_t filtered_out = 0;       // filter misses (work never done)
  std::uint64_t subscribes = 0;
  std::uint64_t resumes = 0;            // subscribes carrying a cursor
  std::uint64_t replayed_events = 0;
  std::uint64_t gap_sequences = 0;      // irrecoverable resume misses
  std::uint64_t sheds[kShedReasonCount] = {};
  std::uint64_t unsubscribes = 0;
};

class EventBus {
 public:
  /// Maps a user id onto a ward id for FilterKind::Ward. Must be pure
  /// and thread-safe. Null = every user in ward 0.
  using WardFn = std::function<std::uint32_t(std::uint64_t)>;

  explicit EventBus(EventBusConfig config, WardFn ward_of = nullptr);
  ~EventBus();
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  struct ResumeResult {
    std::uint64_t replayed = 0;
    std::uint64_t gap = 0;
    std::uint64_t next_seq = 1;
  };

  /// Registers a subscription. `resume_cursor` is the last sequence the
  /// client saw (0 = fresh); matching ring events past it are enqueued
  /// immediately. Returns the subscription id (never 0).
  std::uint64_t subscribe(const FilterSpec& filter, OverflowPolicy policy,
                          std::uint64_t resume_cursor = 0,
                          ResumeResult* resume = nullptr);

  /// Graceful close: remaining queued events count as dropped, counters
  /// are frozen and retained for post-run audits.
  void unsubscribe(std::uint64_t id);

  /// Sheds a subscription (queue -> dropped, state -> Shed). Idempotent.
  void shed(std::uint64_t id, ShedReason reason);

  /// Fans one merged fleet event out to every live subscription and
  /// appends it to the replay ring. Non-blocking, lock-bounded.
  void publish(std::uint16_t shard, const core::PipelineEvent& event);

  /// Ladder maintenance: walks every live subscription once, applying
  /// the Lagging/Shed transitions. Call at pump cadence.
  void tick();

  struct DrainResult {
    std::size_t delivered = 0;
    /// Events shed from this queue since the last drain; a non-zero
    /// value means the consumer must be told (Gap frame) before the
    /// next event. next_seq is the first sequence after the gap.
    std::uint64_t gap_dropped = 0;
    std::uint64_t gap_next_seq = 0;
    bool shed = false;  // subscription is Shed/unknown; nothing delivered
    ShedReason shed_reason = ShedReason::SlowConsumer;
  };

  /// Consumer side: pops up to `max_events` into `out` (appending).
  DrainResult drain(std::uint64_t id, std::vector<TelemetryEvent>& out,
                    std::size_t max_events);

  // --- introspection -------------------------------------------------------
  SubscriberState state(std::uint64_t id) const;
  SubscriptionCounters subscription_counters(std::uint64_t id) const;
  std::size_t queued(std::uint64_t id) const;
  /// Walks every subscription ever created (live, shed and closed) —
  /// the post-run conservation audit. `fn(id, filter, state, counters,
  /// queued)`.
  void for_each_subscription(
      const std::function<void(std::uint64_t, const FilterSpec&,
                               SubscriberState, const SubscriptionCounters&,
                               std::size_t)>& fn) const;
  BusCounters counters() const;
  std::uint64_t last_seq() const;
  std::size_t subscriptions_in(SubscriberState state) const;
  std::size_t live_subscriptions() const;

  /// Exports the bus counters as telemetry_* series (read under the
  /// bus lock at scrape time) and registers the subscriber-state and
  /// last-sequence gauges, sampled on every tick. Wiring time only.
  void bind_observability(obs::Observability& hub);

 private:
  struct Subscription;

  /// Drops the queue (queued -> dropped) and retires the subscription.
  void close_locked(Subscription& sub);
  void shed_locked(Subscription& sub, ShedReason reason);
  bool filter_matches(const FilterSpec& filter,
                      const TelemetryEvent& event) const;
  void offer_locked(Subscription& sub, const TelemetryEvent& event,
                    bool replay);
  void publish_gauges_locked();

  EventBusConfig config_;
  WardFn ward_of_;

  mutable std::mutex mutex_;  // registry + ring + counters
  std::map<std::uint64_t, std::unique_ptr<Subscription>> subscriptions_;
  std::uint64_t next_subscription_id_ = 1;
  std::uint64_t last_seq_ = 0;
  std::vector<TelemetryEvent> ring_;  // seq -> ring_[(seq-1) % capacity]
  BusCounters counters_;

  // Null until bind_observability; `hub` is the is-bound sentinel.
  struct Instruments {
    obs::Observability* hub = nullptr;
    obs::Gauge* subscribers[kSubscriberStateCount] = {};
    obs::Gauge* ring_seq = nullptr;
  } obs_;
  obs::CounterCollector collector_;  // last: retires before fields go
};

}  // namespace tagbreathe::telemetry
