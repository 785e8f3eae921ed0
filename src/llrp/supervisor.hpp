// Self-healing LLRP session supervisor.
//
// The paper's measurement chain hangs off one fragile TCP/LLRP stream
// from the reader (Sec. V); in deployment that stream drops reads,
// stalls and disconnects. The supervisor wraps LlrpClient in a liveness
// state machine so reader faults degrade one user's estimate instead of
// killing the process:
//
//   Disconnected -> Connecting -> Configuring -> Streaming <-> Degraded
//        ^                |             |            |            |
//        +---- backoff ---+-- timeout --+            +- watchdog -+
//
// - Disconnected: dial the transport with exponential backoff + jitter.
// - Connecting: transport up; flush stale session state, clear the
//   reader's ROSpec (DELETE) and begin a fresh ADD/ENABLE/START.
// - Configuring: drive the handshake response by response; a rejection
//   or timeout tears the link down and backs off.
// - Streaming: reports flowing; keepalives on a timer probe liveness.
// - Degraded: traffic went quiet but the watchdog has not fired yet —
//   the session is kept while the supervisor probes harder; traffic
//   resumption restores Streaming, watchdog expiry forces a reconnect.
//
// Time is injected via advance_to(now_s) on the same clock that drives
// the reader simulation, so every recovery scenario is deterministic.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "llrp/client.hpp"
#include "llrp/fault_channel.hpp"
#include "obs/registry.hpp"

namespace tagbreathe::core {
class IngestQueue;
}

namespace tagbreathe::obs {
class Observability;
}  // namespace tagbreathe::obs

namespace tagbreathe::llrp {

enum class SessionState : std::uint8_t {
  Disconnected = 0,
  Connecting = 1,
  Configuring = 2,
  Streaming = 3,
  Degraded = 4,
};
inline constexpr std::size_t kSessionStateCount = 5;

const char* session_state_name(SessionState state) noexcept;

struct SupervisorConfig {
  /// Liveness probe cadence while Streaming/Degraded.
  double keepalive_period_s = 1.0;
  /// Total silence (no reports, keepalive echoes or events) for this
  /// long => the link is declared dead and torn down.
  double watchdog_timeout_s = 3.0;
  /// Silence before Streaming is downgraded to Degraded (must be below
  /// the watchdog timeout to be observable).
  double degraded_after_s = 1.5;
  /// ADD/ENABLE/START must complete within this budget per attempt.
  /// The budget spans all three stages; it must hold several retry
  /// rounds (handshake_retry_s each) so per-frame corruption does not
  /// burn whole attempts.
  double handshake_timeout_s = 4.0;
  /// A handshake request whose response has not arrived after this long
  /// is retransmitted in place (its frame was likely corrupted in
  /// transit) rather than costing the whole attempt. Must be well below
  /// handshake_timeout_s to buy several tries per attempt.
  double handshake_retry_s = 0.4;
  /// Reconnect backoff: initial delay, growth factor, cap, and the
  /// jitter fraction (+-) applied to each delay so a fleet of hosts
  /// does not redial in lockstep.
  double backoff_initial_s = 0.25;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 5.0;
  double backoff_jitter = 0.25;
  /// Treat a severed transport as immediately detected (a socket write
  /// error), rather than waiting for the watchdog. Silent stalls are
  /// always left to the watchdog.
  bool detect_transport_loss = true;
  std::uint64_t seed = 0x5EED;
};

/// Point-in-time liveness sample: enough signal to classify a session as
/// up, degraded or dead without reaching into the state machine. A host
/// that runs a ReaderFleet reduces it to the fleet's link-up input
/// (ReaderFleet::probe_reader).
struct SessionProbe {
  SessionState state = SessionState::Disconnected;
  /// Seconds since the session last saw any traffic (reports,
  /// keepalive echoes, events). 0 while not yet streaming.
  double silence_s = 0.0;
  /// Current reconnect backoff delay (grows with failures).
  double backoff_s = 0.0;
  /// Dial / watchdog / handshake failures since the last completed
  /// ADD/ENABLE/START cycle. Resets to 0 on re-arm, so a supervisor
  /// stuck in a redial loop reads as monotonically worsening.
  std::size_t consecutive_failures = 0;
  bool streaming = false;
};

/// Exported health counters (the observability surface of the ISSUE).
struct SupervisorHealth {
  std::size_t reconnects = 0;          // successful transport dials
  std::size_t reconnect_failures = 0;  // dial attempts that failed
  std::size_t watchdog_fires = 0;
  std::size_t handshake_failures = 0;
  std::size_t handshake_retransmits = 0;  // lost-request resends
  std::size_t rearm_count = 0;         // completed ADD/ENABLE/START cycles
  std::size_t keepalives_sent = 0;
  std::size_t state_changes = 0;
  double time_in_state_s[kSessionStateCount] = {};
};

class SessionSupervisor {
 public:
  /// `channel` may be null when the transport has no failure modes (a
  /// plain DuplexChannel): the dial step then always succeeds.
  SessionSupervisor(SupervisorConfig config, LlrpClient& client,
                    FaultyChannel* channel);

  /// Drives the state machine up to `now_s`: polls the client, probes
  /// liveness, dials/re-arms as needed. Call at the pump cadence.
  void advance_to(double now_s);

  /// Routes every read the client decodes into a bounded ingest queue
  /// (core/ingest.hpp) instead of a raw callback: the reader pump
  /// thread enqueues without ever blocking (a full queue sheds per the
  /// queue's backpressure policy; under Block it counts would-block),
  /// and the analysis thread drains via IngestFrontEnd::pump. The
  /// queue must outlive the supervised client. Replaces any callback
  /// previously installed on the client.
  void route_reads_to(core::IngestQueue& queue);

  SessionState state() const noexcept { return state_; }
  const SupervisorHealth& health() const noexcept { return health_; }
  bool streaming() const noexcept {
    return state_ == SessionState::Streaming ||
           state_ == SessionState::Degraded;
  }
  /// Current reconnect delay (diagnostic; grows with failures).
  double backoff_s() const noexcept { return backoff_; }

  /// Health sample at `now_s`. Pure observation: does not advance the
  /// machine.
  SessionProbe probe(double now_s) const noexcept;

  /// Registers llrp_* instruments on `hub`: the SupervisorHealth counts
  /// are read at scrape time (scrape on the thread that advances the
  /// supervisor), the state gauges are sampled at every advance_to, and
  /// state transitions emit "llrp.session" Instant trace events stamped
  /// with the supervisor's injected clock.
  void bind_observability(obs::Observability& hub);

 private:
  void publish_gauges();
  void enter(SessionState next, double now_s);
  void tear_down(double now_s);
  bool transport_connected() const noexcept;
  bool dial() noexcept;
  void schedule_retry(double now_s);
  /// Updates last_traffic_s_ from the client's receive counters.
  void observe_traffic(double now_s);
  void drive_handshake(double now_s);

  SupervisorConfig config_;
  LlrpClient& client_;
  FaultyChannel* channel_;
  common::Rng rng_;
  SupervisorHealth health_;

  SessionState state_ = SessionState::Disconnected;
  double last_now_ = 0.0;
  double backoff_ = 0.0;
  double next_attempt_ = 0.0;
  double handshake_deadline_ = 0.0;
  double handshake_resend_ = 0.0;
  bool enable_sent_ = false;
  bool start_sent_ = false;
  double next_keepalive_ = 0.0;
  double last_traffic_s_ = 0.0;
  std::size_t traffic_counter_seen_ = 0;
  /// Failures (dial, watchdog, handshake) since the last re-arm.
  std::size_t consecutive_failures_ = 0;

  // Null until bind_observability; `hub` is the is-bound sentinel.
  struct Instruments {
    obs::Observability* hub = nullptr;
    obs::Gauge* session_state = nullptr;
    obs::Gauge* time_in_state[kSessionStateCount] = {};
    std::uint16_t trace_stage = 0;
  } obs_;
  obs::CounterCollector collector_;  // last: retires before fields go
};

}  // namespace tagbreathe::llrp
