// Robust ingest front-end: the admission layer between read producers
// (llrp client / reader sim) and the analysis pipeline.
//
// The paper's chain trusts every decoded read; in deployment the stream
// is dirty — duplicated report entries, reader clock steps, corrupted
// EPCs minting phantom users, burst overload when a reader flushes a
// backlog. WiFi/RSS respiration systems gate estimation on validated,
// rate-limited input for the same reason (UbiBreathe; Catch a Breath).
// Three stages live here:
//
//   producer thread(s)                       analysis thread
//   ──────────────────                       ───────────────
//   IngestQueue::push  ──▶ [bounded MPSC] ──▶ IngestFrontEnd::pump
//                                              │ ReadValidator
//                                              │   repair / quarantine /
//                                              │   per-user LRU admission
//                                              ▼
//                                            RealtimePipeline::push
//
// - IngestQueue: bounded MPSC queue on common::RingBuffer decoupling the
//   reader thread from analysis, with selectable backpressure (block,
//   drop-oldest, per-tag coalesce) and shed/enqueue/latency counters
//   (core/metrics LatencyStats).
// - ReadValidator: repairs small timestamp regressions, rejects large
//   ones, drops duplicate deliveries, quarantines malformed or unknown
//   EPC decodes, and enforces a per-user admission cap with LRU
//   eviction so adversarial streams cannot grow memory without bound.
// - IngestFrontEnd: composes both in front of a RealtimePipeline and
//   guarantees the pipeline only ever sees monotonic, validated reads.
//
// Everything is deterministic: time is stream time, never a wall clock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ring_buffer.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/types.hpp"
#include "obs/registry.hpp"

namespace tagbreathe::obs {
class Observability;
}  // namespace tagbreathe::obs

namespace tagbreathe::core {

/// What the queue does when a producer pushes into a full buffer.
enum class BackpressurePolicy : std::uint8_t {
  /// Producer waits until the consumer drains (offline replay feeds;
  /// never use on the reader pump thread). try_push reports WouldBlock.
  Block = 0,
  /// The oldest queued read is shed to admit the new one (live feeds:
  /// newest data is worth the most).
  DropOldest = 1,
  /// The newest queued read of the same (user, tag, antenna) leaves
  /// and the new read joins at the back, so the queue stays in arrival
  /// order; with no read of that stream queued, the oldest read is
  /// shed (common::RingBuffer::push is the one rule).
  Coalesce = 2,
};
inline constexpr std::size_t kBackpressurePolicyCount = 3;

/// Total: unknown values name themselves instead of invoking UB.
const char* backpressure_policy_name(BackpressurePolicy policy) noexcept;

/// Outcome of one producer push.
enum class EnqueueResult : std::uint8_t {
  Enqueued = 0,       // appended, queue had room
  DroppedOldest = 1,  // appended, oldest read shed
  Coalesced = 2,      // appended, newest read of the same stream removed
  WouldBlock = 3,     // Block policy + full queue on try_push
  Closed = 4,         // queue closed, read refused
};
inline constexpr std::size_t kEnqueueResultCount = 5;
const char* enqueue_result_name(EnqueueResult result) noexcept;

/// Why a read was refused admission to the pipeline.
enum class QuarantineReason : std::uint8_t {
  MalformedEpc = 0,         // zero user or tag ID — not a monitoring EPC
  UnknownUser = 1,          // EPC decodes to a user outside the roster
  NonFiniteField = 2,       // NaN/Inf in a numeric field
  TimestampRegression = 3,  // clock stepped back beyond repair
  DuplicateRead = 4,        // identical delivery already admitted
};
inline constexpr std::size_t kQuarantineReasonCount = 5;
const char* quarantine_reason_name(QuarantineReason reason) noexcept;

struct IngestConfig {
  /// Bounded queue depth (reads).
  std::size_t queue_capacity = 4096;
  BackpressurePolicy policy = BackpressurePolicy::DropOldest;
  /// A timestamp at most this far behind the newest admitted read is
  /// repaired (clamped forward); further behind is quarantined as a
  /// regression. Covers reorder jitter and small reader clock steps.
  double repair_skew_s = 0.25;
  /// Two reads of one stream within this interval carrying the same
  /// phase are one delivery duplicated in transit.
  double duplicate_window_s = 1e-4;
  /// Distinct users admitted at once; the least-recently-seen user is
  /// evicted (and reported via take_evicted_users) when a new user
  /// arrives at the cap. 0 = unlimited.
  std::size_t max_users = 64;
  /// Non-empty => only these user IDs are admitted; everything else is
  /// quarantined as UnknownUser. Empty accepts any well-formed EPC.
  std::vector<std::uint64_t> monitored_users;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Queue-side counters (shed/enqueue/latency observability).
struct IngestQueueCounters {
  std::size_t enqueued = 0;        // reads accepted into the buffer
  std::size_t shed_oldest = 0;     // reads evicted by DropOldest/Coalesce
  std::size_t coalesced = 0;       // same-stream reads replaced (Coalesce)
  std::size_t would_block = 0;     // try_push refusals under Block
  std::size_t blocked_pushes = 0;  // pushes that had to wait (Block)
  std::size_t closed_rejects = 0;  // pushes after close()
  std::size_t drained = 0;         // reads handed to the consumer
  std::size_t peak_depth = 0;      // high-water mark of the buffer
  /// Stream-time delay between enqueue and drain.
  LatencyStats queue_delay;
};

/// Validator-side counters.
struct ValidationCounters {
  std::size_t admitted = 0;
  std::size_t repaired_timestamps = 0;
  std::size_t quarantined_total = 0;
  std::size_t quarantined[kQuarantineReasonCount] = {};
  std::size_t users_evicted = 0;
};

/// Bounded MPSC queue between read producers and the analysis thread.
/// Producers may race; there must be exactly one consumer. All waiting
/// uses stream-time-free primitives (condition variables), so the
/// single-threaded deterministic harnesses can use it too — they just
/// never block (DropOldest/Coalesce, or try_push).
class IngestQueue {
 public:
  IngestQueue(std::size_t capacity, BackpressurePolicy policy);

  /// Producer side. `now_s` is the producer's stream clock, used only
  /// for latency accounting (defaults to the read's own timestamp).
  /// Under Block policy push() waits for room; try_push() never waits.
  EnqueueResult push(const TagRead& read, double now_s);
  EnqueueResult push(const TagRead& read) { return push(read, read.time_s); }
  EnqueueResult try_push(const TagRead& read, double now_s);
  EnqueueResult try_push(const TagRead& read) {
    return try_push(read, read.time_s);
  }

  /// Consumer side: moves everything currently queued into `out`
  /// (appending) and returns the count. `now_s` stamps the drain time
  /// for latency accounting.
  std::size_t drain(std::vector<TagRead>& out, double now_s);

  /// Wakes blocked producers; subsequent pushes return Closed.
  void close();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return buffer_.capacity(); }
  BackpressurePolicy policy() const noexcept { return policy_; }
  bool closed() const;

  /// Snapshot of the counters (taken under the queue lock).
  IngestQueueCounters counters() const;

  /// Exports the counters as ingest_queue_* series (read under the
  /// queue lock at scrape time) and registers the depth gauge and delay
  /// histogram. Wiring time only — bind before producers start. The
  /// hub must outlive the queue.
  void bind_observability(obs::Observability& hub);

 private:
  struct Slot {
    TagRead read;
    double enqueued_at = 0.0;
  };

  EnqueueResult push_locked(const TagRead& read, double now_s);

  const BackpressurePolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable room_;
  common::RingBuffer<Slot> buffer_;
  bool closed_ = false;
  IngestQueueCounters counters_;
  // Null until bind_observability; read and set under mutex_.
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* delay_histogram_ = nullptr;
  obs::CounterCollector collector_;  // last: retires before fields go
};

/// Serializable image of a validator (core/snapshot): the admission
/// frontier plus per-stream duplicate-detection state and the LRU
/// order. Counters are observability, not state, and restart at zero
/// with the process.
struct ValidatorState {
  struct Stream {
    std::uint64_t user_id = 0;
    std::uint32_t tag_id = 0;
    std::uint8_t antenna_id = 0;
    double last_time_s = 0.0;
    double last_phase_rad = 0.0;
  };
  double last_admitted_s = 0.0;
  bool any_admitted = false;  // last_admitted_s is -inf when false
  std::vector<Stream> streams;
  std::vector<std::uint64_t> lru_order;  // least-recent first
};

/// Stateful read validation & quarantine. Single-threaded (runs on the
/// consumer side of the queue).
class ReadValidator {
 public:
  explicit ReadValidator(IngestConfig config);

  struct Verdict {
    bool admitted = false;
    bool repaired = false;  // timestamp clamped forward
    QuarantineReason reason = QuarantineReason::MalformedEpc;
  };

  /// Judges one read, possibly repairing its timestamp in place.
  Verdict admit(TagRead& read);

  /// Users evicted by the admission cap since the last call; the caller
  /// must propagate these to the pipeline (forget_user).
  std::vector<std::uint64_t> take_evicted_users();

  const ValidationCounters& counters() const noexcept { return counters_; }
  /// Newest admitted timestamp (-inf before the first admission).
  double last_admitted_s() const noexcept { return last_admitted_s_; }
  std::size_t tracked_users() const noexcept { return lru_index_.size(); }

  /// Durable-state hooks (crash recovery): the restored validator
  /// resumes exactly where the snapshot left off — the admission
  /// frontier, duplicate windows and LRU order all survive, so a
  /// replayed or resumed stream is judged identically to the original.
  ValidatorState export_state() const;
  void import_state(const ValidatorState& state);

  /// Exports the counters (ingest_admitted_total, per-reason
  /// ingest_quarantined_total, ...) at scrape time and registers the
  /// tracked-users gauge. Wiring time only; scrape on the pump thread.
  void bind_observability(obs::Observability& hub);

 private:
  struct StreamState {
    double last_time_s = 0.0;
    double last_phase_rad = 0.0;
  };
  struct LruKey {
    std::uint64_t user_id = 0;
    std::uint32_t tag_id = 0;
    std::uint8_t antenna_id = 0;
    friend bool operator==(const LruKey&, const LruKey&) = default;
    friend auto operator<=>(const LruKey&, const LruKey&) = default;
  };
  struct LruKeyHash {
    std::uint64_t operator()(const LruKey& key) const noexcept {
      return common::splitmix64_mix(
          common::splitmix64_mix(key.user_id) ^
          (static_cast<std::uint64_t>(key.tag_id) << 8) ^ key.antenna_id);
    }
  };

  Verdict quarantine(QuarantineReason reason);
  void touch_user(std::uint64_t user_id);

  obs::Gauge* tracked_gauge_ = nullptr;  // null until bind_observability

  IngestConfig config_;
  ValidationCounters counters_;
  double last_admitted_s_;
  /// Per-stream duplicate-detection state; flat (ISSUE 10) because the
  /// map holds one entry per admitted (user, tag, antenna) and is hit
  /// on every read. export_state walks it via for_each_ordered so the
  /// snapshot image stays byte-stable.
  common::FlatMap<LruKey, StreamState, LruKeyHash> streams_;
  /// LRU order of admitted users, least-recent first.
  std::list<std::uint64_t> lru_order_;
  common::FlatUserMap<std::list<std::uint64_t>::iterator> lru_index_;
  std::vector<std::uint64_t> pending_evictions_;
  obs::CounterCollector collector_;  // last: retires before fields go
};

/// Queue + validator composed in front of a RealtimePipeline. Producers
/// call offer() (any thread); the analysis thread calls pump() on its
/// cadence. The pipeline underneath only ever sees validated reads with
/// non-decreasing timestamps.
class IngestFrontEnd {
 public:
  /// The pipeline must outlive the front-end.
  IngestFrontEnd(IngestConfig config, RealtimePipeline& pipeline);

  /// Producer side: non-blocking admission into the queue (the reader
  /// pump must never stall behind analysis, so Block policy surfaces as
  /// WouldBlock here — use queue().push for blocking replay feeds).
  EnqueueResult offer(const TagRead& read, double now_s);
  EnqueueResult offer(const TagRead& read) { return offer(read, read.time_s); }

  /// Consumer side: drains the queue, validates every read, feeds the
  /// survivors to the pipeline, applies admission evictions, and
  /// advances the pipeline clock to `now_s`. Returns reads admitted.
  std::size_t pump(double now_s);

  /// Observer invoked for every read the validator admits, immediately
  /// before it reaches the pipeline. The durability layer hangs its
  /// write-ahead journal here so the journal sees exactly the admitted
  /// stream (quarantined reads are never persisted).
  using AdmitTap = std::function<void(const TagRead&)>;
  void set_admit_tap(AdmitTap tap) { tap_ = std::move(tap); }

  IngestQueue& queue() noexcept { return queue_; }
  /// Mutable access exists for recovery (state import); live code
  /// should treat the validator as pump-owned.
  ReadValidator& validator() noexcept { return validator_; }
  const ReadValidator& validator() const noexcept { return validator_; }
  const ValidationCounters& validation() const noexcept {
    return validator_.counters();
  }
  IngestQueueCounters queue_counters() const { return queue_.counters(); }
  RealtimePipeline& pipeline() noexcept { return pipeline_; }

  /// Binds the queue and the validator to the hub. The pipeline is not
  /// bound here — it is caller-owned; bind it separately
  /// (RealtimePipeline::bind_observability) or via DurableMonitor.
  void bind_observability(obs::Observability& hub);

 private:
  IngestQueue queue_;
  ReadValidator validator_;
  RealtimePipeline& pipeline_;
  AdmitTap tap_;
  std::vector<TagRead> scratch_;
};

}  // namespace tagbreathe::core
