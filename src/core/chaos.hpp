// Deterministic chaos-scenario harness for the ingest front-end.
//
// The transport layer's FaultPlan (llrp/fault_channel) models wire
// faults — disconnects, latency, frame corruption. This layer composes
// the failure modes the transport cannot express because they happen to
// *decoded reads*: tag dropout, duplicate and out-of-order delivery,
// timestamp skew and regression, EPC bit corruption, burst overload,
// reader blackouts. Every mode is driven by a seeded Rng and stream
// time, so a scenario replays bit-identically from its seed.
//
// run_soak() drives a multi-user synthetic breathing population through
// a ChaosInjector into an IngestFrontEnd + RealtimePipeline and checks
// the data-plane invariants the admission layer exists to guarantee:
// bounded queue depth and per-user state, monotonic emitted timestamps,
// no events for users outside the roster (i.e. nothing estimated from
// quarantined reads), and SignalLost/Recovered transitions consistent
// with injected blackouts. The event log uses fixed-precision
// formatting so two runs with one seed produce identical logs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "core/types.hpp"

namespace tagbreathe::core {

struct ChaosConfig {
  std::uint64_t seed = 0xC4A05;
  /// Per-read probability of silent loss (tag dropout / missed slot).
  double dropout_prob = 0.0;
  /// Per-read probability of a second, identical delivery.
  double duplicate_prob = 0.0;
  /// Per-read probability of delayed delivery (=> out-of-order), with a
  /// uniform hold-back in (0, reorder_max_delay_s].
  double reorder_prob = 0.0;
  double reorder_max_delay_s = 0.0;
  /// Per-read probability of a timestamp step, uniform in
  /// [-skew_max_s, +skew_max_s] (negative steps are regressions).
  double skew_prob = 0.0;
  double skew_max_s = 0.0;
  /// Per-read probability of flipping one random bit of the EPC.
  double epc_corrupt_prob = 0.0;
  /// Reader blackout: every `blackout_period_s` of stream time, all
  /// delivery stops for `blackout_duration_s` (line-of-sight blockage,
  /// reader reboot). 0 disables.
  double blackout_period_s = 0.0;
  double blackout_duration_s = 0.0;
  /// Burst overload: every `burst_period_s`, the most recent delivered
  /// reads are replayed `burst_copies` times back-to-back (a reader
  /// flushing a stale report backlog). 0 disables.
  double burst_period_s = 0.0;
  std::size_t burst_copies = 0;

  /// Throws std::invalid_argument on nonsensical values (probabilities
  /// outside [0, 1], negative durations).
  void validate() const;

  /// Every failure mode enabled at moderate rates — the composite
  /// scenario the acceptance soak runs.
  static ChaosConfig composite(std::uint64_t seed);
};

struct ChaosStats {
  std::size_t total_in = 0;          // clean reads fed
  std::size_t total_out = 0;         // reads delivered downstream
  std::size_t dropped = 0;           // per-read dropout
  std::size_t blackout_dropped = 0;  // lost to blackout windows
  std::size_t duplicated = 0;        // extra deliveries injected
  std::size_t reordered = 0;         // reads delivered late
  std::size_t skewed = 0;            // timestamps perturbed
  std::size_t corrupted = 0;         // EPC bits flipped
  std::size_t burst_injected = 0;    // overload replays injected
};

/// Applies the configured failure modes to a clean, time-ordered read
/// stream. Feed reads in order; delivered (possibly mangled) reads are
/// appended to the caller's vector.
class ChaosInjector {
 public:
  explicit ChaosInjector(ChaosConfig config);

  /// Feeds one clean read; appends 0..n deliveries to `out`.
  void feed(const TagRead& read, std::vector<TagRead>& out);

  /// Delivers any reads still held back for reordering.
  void flush(std::vector<TagRead>& out);

  const ChaosStats& stats() const noexcept { return stats_; }

 private:
  struct Delayed {
    double deliver_at_s = 0.0;
    TagRead read;
  };

  bool in_blackout(double time_s) const noexcept;
  void deliver(const TagRead& read, std::vector<TagRead>& out);
  void release_due(double now_s, std::vector<TagRead>& out);

  ChaosConfig config_;
  common::Rng rng_;
  ChaosStats stats_;
  std::vector<Delayed> delayed_;
  common::RingBuffer<TagRead> recent_;  // replay source for bursts
  double next_burst_s_;
};

// ---------------------------------------------------------------------------
// Reader-scoped chaos (fleet failover, ISSUE 6)
//
// The modes above mangle individual reads; a reader fleet additionally
// fails at the granularity of a whole reader: one reader goes dark
// (power loss, network partition), flaps (die/revive cycles from a bad
// cable or overheating), or bursts (one reader flushing a stale
// backlog while its peers stay healthy). ReaderChaos scripts those as
// deterministic outage windows layered over a per-reader ChaosInjector,
// so fleet failover soaks replay bit-identically from their seeds.

/// One scripted delivery gap: the reader is dark in
/// [start_s, start_s + duration_s).
struct ReaderOutage {
  double start_s = 0.0;
  double duration_s = 0.0;
};

struct ReaderChaosConfig {
  /// Which fleet reader this scenario applies to.
  std::size_t reader = 0;
  /// Per-read faults (dropout, dup, skew, bursts...) for this reader.
  ChaosConfig chaos{};
  /// Scripted blackouts. Overlaps are allowed (union semantics).
  std::vector<ReaderOutage> outages;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;

  /// One reader dark for [start_s, start_s + duration_s).
  static ReaderChaosConfig blackout(std::size_t reader, double start_s,
                                    double duration_s, std::uint64_t seed);
  /// Die/revive cycling: `cycles` repetitions of `up_s` alive then
  /// `down_s` dark, beginning at start_s + up_s.
  static ReaderChaosConfig flap(std::size_t reader, double start_s,
                                double up_s, double down_s,
                                std::size_t cycles, std::uint64_t seed);
  /// One reader replaying its recent backlog `copies` times every
  /// `period_s` (burst overload) while the rest of the fleet is clean.
  static ReaderChaosConfig burst_overload(std::size_t reader, double period_s,
                                          std::size_t copies,
                                          std::uint64_t seed);
};

/// Per-reader injector: scripted outages + the per-read failure modes.
/// Reads fed while the reader is offline are dropped and counted; the
/// fleet soak also uses offline() to drive its health probes (the
/// supervisor-side view of the same outage).
class ReaderChaos {
 public:
  explicit ReaderChaos(ReaderChaosConfig config);

  bool offline(double time_s) const noexcept;
  void feed(const TagRead& read, std::vector<TagRead>& out);
  void flush(std::vector<TagRead>& out);

  std::size_t reader() const noexcept { return config_.reader; }
  const ChaosStats& stats() const noexcept { return injector_.stats(); }
  /// Reads swallowed by scripted outage windows.
  std::size_t outage_dropped() const noexcept { return outage_dropped_; }

 private:
  ReaderChaosConfig config_;
  ChaosInjector injector_;
  std::size_t outage_dropped_ = 0;
};

/// Multi-user end-to-end soak under chaos.
struct SoakConfig {
  std::size_t n_users = 3;
  std::size_t tags_per_user = 2;
  /// Simulated duration (the acceptance scenario runs 600 s).
  double duration_s = 600.0;
  /// Clean per-tag read cadence.
  double read_rate_hz = 8.0;
  /// User u breathes at base + 1.5·u bpm.
  double base_rate_bpm = 10.0;
  /// Analysis-thread pump cadence.
  double pump_period_s = 0.25;
  IngestConfig ingest{};
  PipelineConfig pipeline{};
  ChaosConfig chaos{};
  /// Optional observability hub the soak's pipeline + front-end bind to
  /// (the golden-snapshot determinism test exports it after the run).
  /// Must outlive the soak call. Null = no instrumentation.
  obs::Observability* observability = nullptr;

  void validate() const;
};

struct SoakReport {
  /// Fixed-precision, deterministic log of every pipeline event.
  std::vector<std::string> event_log;
  /// Invariant violations (empty on a healthy run).
  std::vector<std::string> violations;
  ChaosStats chaos;
  IngestQueueCounters queue;
  ValidationCounters validation;
  /// Journal/snapshot/recovery counters — populated by the durability
  /// soak (core/recovery run_durable_soak); all-zero for a plain soak.
  DurabilityCounters durability;
  std::size_t events = 0;
  std::size_t signal_lost_events = 0;
  std::size_t signal_recovered_events = 0;
  std::size_t peak_tracked_users = 0;
  double last_event_time_s = 0.0;

  bool ok() const noexcept { return violations.empty(); }
};

/// Fixed-precision one-line rendering of a pipeline event. All soak
/// logs (chaos and crash-recovery) format through this, so two
/// deterministic runs — or a golden run and a recovered run — can be
/// compared byte for byte.
std::string format_soak_event(const PipelineEvent& event);

/// The clean synthetic population a soak feeds: n_users breathing
/// sinusoids, tags_per_user staggered read streams each, time-sorted.
ReadStream make_soak_population(const SoakConfig& config);

/// One step of a single-reader soak drive: offer `read` to the
/// front-end at stream time `time_s`, or (`pump`) run the analysis tick
/// at `time_s`.
struct SoakStep {
  double time_s = 0.0;
  bool pump = false;
  TagRead read;  // unused by a pump step
};

/// Everything a single-reader soak (run_soak, and the durable and crash
/// soaks in core/recovery) sets up before its first step, built in one
/// place so the three cannot drift apart.
struct SoakPlan {
  /// User ids 1..n_users; the ingest layer quarantines anything else
  /// (corrupted EPCs).
  std::vector<std::uint64_t> roster;
  /// config.ingest, with monitored_users defaulting to the roster.
  IngestConfig ingest;
  /// config.pipeline, with max_users defaulting to the ingest cap.
  PipelineConfig pipeline;
  /// The drive script. For each clean read: its chaos deliveries,
  /// offered at the read's time, then a pump at every pump-grid point
  /// the read has reached. At duration_s: the injector's held-back
  /// reads, then the final pump.
  std::vector<SoakStep> steps;
  /// What the injector did to the clean stream while scripting.
  ChaosStats chaos;
};

/// Validates `config` and builds its plan. Deterministic in the config.
SoakPlan make_soak_plan(const SoakConfig& config);

/// Plays `steps` from index `next` on through `target` (anything with
/// offer(read, now_s) and pump(now_s): an IngestFrontEnd or a
/// DurableMonitor), calling after_pump() after every pump. `next` is
/// the step in flight, so a run that throws mid-step (a simulated
/// crash) resumes at the step it died in.
template <typename Target, typename AfterPump>
void play_soak_steps(const std::vector<SoakStep>& steps, std::size_t& next,
                     Target& target, AfterPump&& after_pump) {
  for (; next < steps.size(); ++next) {
    const SoakStep& step = steps[next];
    if (step.pump) {
      target.pump(step.time_s);
      after_pump();
    } else {
      target.offer(step.read, step.time_s);
    }
  }
}

/// Event sink + invariant bookkeeping shared by run_soak and the
/// durable soak (core/recovery): event counting and logging, monotonic
/// event time, roster membership, tracked-user caps, and the post-run
/// queue and blackout gates. `config` and `plan` must outlive the sink.
class SoakInvariantSink {
 public:
  SoakInvariantSink(const SoakConfig& config, const SoakPlan& plan,
                    SoakReport& report);

  void on_event(const PipelineEvent& event);

  /// Tracking-state checks, run after every pump.
  void after_pump(IngestFrontEnd& frontend);

  /// Post-run: copies the chaos, queue and validation counters into the
  /// report, then checks queue conservation and that blackouts longer
  /// than the loss threshold produced SignalLost and SignalRecovered.
  void finish(IngestFrontEnd& frontend);

  void violation(std::string line);

 private:
  const SoakConfig& config_;
  const SoakPlan& plan_;
  std::size_t user_cap_;
  SoakReport& report_;
  double last_event_s_;
};

/// Appends `line` to a soak report's violations. Past 50 lines it adds
/// one "suppressed" marker and drops the rest, so a broken run cannot
/// allocate without bound. Every soak harness reports through this.
void add_violation(std::vector<std::string>& violations, std::string line);

/// Queue-counter conservation gate shared by every soak harness
/// (run_soak, run_durable_soak, run_fleet_soak): bounded depth and the
/// law `enqueued == drained + shed_oldest + coalesced`. Violation lines
/// are appended to `violations`; `context` prefixes them (e.g.
/// "reader 3: ") so fleet reports attribute the broken reader.
void append_queue_invariant_violations(const IngestQueueCounters& queue,
                                       std::size_t capacity,
                                       std::vector<std::string>& violations,
                                       const std::string& context = {});

/// Runs the soak and checks invariants. Deterministic: two calls with
/// equal configs return identical reports (event logs included).
SoakReport run_soak(const SoakConfig& config);

}  // namespace tagbreathe::core
