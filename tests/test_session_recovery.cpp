// Self-healing session tests: the SessionSupervisor driving an
// LlrpClient over a FaultyChannel must survive disconnects mid-report,
// silent stalls (keepalive watchdog) and corrupt-frame resyncs — and
// the pipeline above it must degrade gracefully instead of drifting.
// Every scenario is seeded and deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "llrp/session.hpp"
#include "obs/observability.hpp"

namespace tagbreathe::llrp {
namespace {

constexpr double kTrueRateBpm = 12.0;

std::unique_ptr<rfid::ReaderSim> make_sim(
    std::unique_ptr<body::Subject>& subject_out,
    double rate_bpm = kTrueRateBpm) {
  body::SubjectConfig cfg;
  cfg.user_id = 1;
  cfg.position = {3.0, 0.0, 0.0};
  cfg.heading_rad = common::kPi;
  subject_out = std::make_unique<body::Subject>(
      cfg, body::BreathingModel(body::MetronomeSchedule(rate_bpm), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 3; ++i) {
    tags.push_back(std::make_unique<rfid::BodyTag>(
        rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i + 1)),
        subject_out.get(),
        body::Subject::all_sites()[static_cast<std::size_t>(i)]));
  }
  rfid::ReaderConfig rc;
  rc.seed = 77;
  return std::make_unique<rfid::ReaderSim>(rc, std::move(tags));
}

TEST(SessionRecovery, SupervisorBringsUpSessionUnaided) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults = FaultPlan::none();
  SupervisedSession session(cfg, make_sim(subject));

  std::size_t reads = 0;
  session.client().set_read_callback(
      [&reads](const core::TagRead&) { ++reads; });

  EXPECT_EQ(session.supervisor().state(), SessionState::Disconnected);
  session.advance(5.0);

  EXPECT_EQ(session.supervisor().state(), SessionState::Streaming);
  EXPECT_TRUE(session.endpoint().rospec_started());
  EXPECT_GE(session.supervisor().health().reconnects, 1u);
  EXPECT_GE(session.supervisor().health().rearm_count, 1u);
  EXPECT_EQ(session.supervisor().health().watchdog_fires, 0u);
  EXPECT_GT(reads, 100u);
}

TEST(SessionRecovery, DisconnectMidReportReconnectsWithBackoffAndRearms) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults.seed = 31;
  cfg.faults.disconnect_period_s = 4.0;
  cfg.faults.disconnect_duration_s = 0.75;
  SupervisedSession session(cfg, make_sim(subject));

  std::size_t reads = 0;
  session.client().set_read_callback(
      [&reads](const core::TagRead&) { ++reads; });

  session.advance(21.5);  // outages at t = 4, 8, 12, 16, 20

  const auto& counters = session.channel().counters();
  const auto& health = session.supervisor().health();
  EXPECT_GE(counters.disconnects, 5u);
  EXPECT_GT(counters.bytes_lost_to_disconnect, 0u);
  // One successful dial per outage (plus the initial bring-up), and a
  // full ROSpec re-arm after each.
  EXPECT_GE(health.reconnects, 5u);
  EXPECT_GE(health.rearm_count, 5u);
  // Dial attempts inside the outage window fail and back off.
  EXPECT_GT(counters.reconnect_attempts, counters.reconnects);

  // The stream is alive again after the last outage.
  const std::size_t before = reads;
  session.advance(2.0);
  EXPECT_GT(reads, before);
  EXPECT_TRUE(session.supervisor().streaming());
  EXPECT_TRUE(session.endpoint().rospec_started());
}

TEST(SessionRecovery, KeepaliveWatchdogRecoversFromSilentStall) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  // No socket-level error reporting: the watchdog is the only defence.
  cfg.supervisor.detect_transport_loss = false;
  SupervisedSession session(cfg, make_sim(subject));
  session.advance(3.0);
  ASSERT_EQ(session.supervisor().state(), SessionState::Streaming);

  // Sever the link silently; writes vanish without an error.
  session.channel().force_disconnect();

  std::set<SessionState> seen;
  for (int i = 0; i < 48; ++i) {
    session.advance(0.25);
    seen.insert(session.supervisor().state());
  }

  const auto& health = session.supervisor().health();
  EXPECT_GE(health.watchdog_fires, 1u);
  // Silence passes through Degraded before the watchdog tears down.
  EXPECT_TRUE(seen.count(SessionState::Degraded));
  EXPECT_TRUE(seen.count(SessionState::Disconnected));
  EXPECT_GT(health.keepalives_sent, 0u);
  // ... and the session came back.
  EXPECT_EQ(session.supervisor().state(), SessionState::Streaming);
  EXPECT_GE(health.rearm_count, 2u);
  EXPECT_GT(health.time_in_state_s[static_cast<std::size_t>(
                SessionState::Degraded)],
            0.0);
}

// The probe's consecutive_failures streak must climb monotonically
// while every dial inside an outage fails, and collapse to ZERO after
// ONE completed re-arm — a single success wipes the streak, so the
// fleet's Dead verdict never lingers on a reader that just recovered.
TEST(SessionRecovery, ProbeFailureStreakResetsOnSingleSuccessfulRearm) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults.seed = 5;
  cfg.faults.disconnect_period_s = 10.0;
  cfg.faults.disconnect_duration_s = 4.0;  // outage spans t = 10 .. 14
  cfg.supervisor.backoff_max_s = 0.5;      // keep redials frequent
  SupervisedSession session(cfg, make_sim(subject));

  // The radio sim overshoots requested durations by a few percent
  // (inventory-round quantisation), so steer by now_s(), not by the
  // sum of advances.
  while (session.now_s() < 9.2) session.advance(0.25);
  ASSERT_LT(session.now_s(), 10.0);  // still before the outage
  ASSERT_TRUE(session.supervisor().streaming());
  EXPECT_EQ(session.supervisor().probe(session.now_s()).consecutive_failures,
            0u);

  while (session.now_s() < 11.5) session.advance(0.25);  // mid-outage
  const SessionProbe mid = session.supervisor().probe(session.now_s());
  EXPECT_FALSE(mid.streaming);
  EXPECT_GE(mid.consecutive_failures, 1u);

  while (session.now_s() < 13.2) session.advance(0.25);  // still down
  ASSERT_LT(session.now_s(), 14.0);
  const SessionProbe late = session.supervisor().probe(session.now_s());
  EXPECT_FALSE(late.streaming);
  EXPECT_GE(late.consecutive_failures, mid.consecutive_failures);
  EXPECT_GE(late.consecutive_failures, 3u);

  // Outage lifts at t = 14; the capped backoff redials within ~0.6 s
  // and a single ADD/ENABLE/START cycle completes.
  while (session.now_s() < 17.5) session.advance(0.25);
  ASSERT_LT(session.now_s(), 20.0);  // before the next outage
  const SessionProbe after = session.supervisor().probe(session.now_s());
  EXPECT_TRUE(after.streaming);
  EXPECT_EQ(after.consecutive_failures, 0u);
}

TEST(SessionRecovery, CorruptFramesResyncWithoutLosingTheSession) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults.seed = 7;
  cfg.faults.bit_flip_prob = 0.002;
  SupervisedSession session(cfg, make_sim(subject));

  std::size_t reads = 0;
  session.client().set_read_callback(
      [&reads](const core::TagRead&) { ++reads; });
  session.advance(20.0);

  // Corruption happened and was absorbed: frames were resynced past or
  // dropped at decode, yet reads kept flowing and the ROSpec stayed up.
  EXPECT_GT(session.channel().counters().bytes_corrupted, 0u);
  EXPECT_GT(session.client().framer_stats().resyncs +
                session.client().decode_errors(),
            0u);
  EXPECT_GT(reads, 400u);
  EXPECT_GE(session.supervisor().health().rearm_count, 1u);
  EXPECT_TRUE(session.endpoint().rospec_started());
}

TEST(SessionRecovery, StatusesReadNoResponseBeforeAnyExchange) {
  // Satellite: a fresh client must distinguish "never asked" from
  // "reader rejected".
  DuplexChannel channel;
  LlrpClient client(ClientConfig{}, channel);
  for (const auto type :
       {MessageType::AddRoSpecResponse, MessageType::EnableRoSpecResponse,
        MessageType::StartRoSpecResponse, MessageType::StopRoSpecResponse}) {
    EXPECT_EQ(client.last_status(type), StatusCode::NoResponse)
        << message_type_name(type);
  }

  // A rejected request flips only its own status.
  std::unique_ptr<body::Subject> subject;
  ReaderEndpoint endpoint(EndpointConfig{}, channel, make_sim(subject));
  client.send_start_rospec();  // no ADD/ENABLE first -> rejected
  endpoint.process_incoming();
  client.poll();
  EXPECT_EQ(client.last_status(MessageType::StartRoSpecResponse),
            StatusCode::ParameterError);
  EXPECT_EQ(client.last_status(MessageType::AddRoSpecResponse),
            StatusCode::NoResponse);

  // reset_session_state() returns everything to NoResponse.
  client.reset_session_state();
  EXPECT_EQ(client.last_status(MessageType::StartRoSpecResponse),
            StatusCode::NoResponse);
}

TEST(SessionRecovery, LatencyBurstsDelayButNeverReorder) {
  // Regression: a latency burst used to hold only its own write while
  // later writes passed straight through — the wire reordered messages,
  // and a stale STOP_ROSPEC could land after the next handshake's START
  // and silently disarm the reader. TCP delays; it never reorders.
  DuplexChannel inner;
  FaultPlan plan;
  plan.seed = 11;
  plan.latency_burst_prob = 0.5;
  plan.latency_s = 0.3;
  FaultyChannel channel(inner, plan);

  std::vector<std::uint8_t> sent_c, sent_r, got_c, got_r;
  std::uint8_t next = 0;
  for (int step = 0; step < 200; ++step) {
    channel.advance_to(step * 0.05);
    // Both directions, varying write sizes, reading as we go so any
    // fresh write that overtook a held one would surface immediately.
    for (int k = 0; k <= step % 3; ++k) {
      const std::uint8_t cb[1] = {next};
      const std::uint8_t rb[1] = {static_cast<std::uint8_t>(next ^ 0xFF)};
      sent_c.push_back(cb[0]);
      channel.write(DuplexChannel::Side::Client, cb);
      sent_r.push_back(rb[0]);
      channel.write(DuplexChannel::Side::Reader, rb);
      ++next;
    }
    for (std::uint8_t b : channel.read(DuplexChannel::Side::Reader))
      got_r.push_back(b);
    for (std::uint8_t b : channel.read(DuplexChannel::Side::Client))
      got_c.push_back(b);
  }
  channel.advance_to(200 * 0.05 + plan.latency_s);
  for (std::uint8_t b : channel.read(DuplexChannel::Side::Reader))
    got_r.push_back(b);
  for (std::uint8_t b : channel.read(DuplexChannel::Side::Client))
    got_c.push_back(b);

  EXPECT_GT(channel.counters().bytes_delayed, 0u);
  // Delayed, possibly — reordered or lost, never.
  EXPECT_EQ(got_r, sent_c);  // client writes surface at the reader side
  EXPECT_EQ(got_c, sent_r);
}

TEST(SessionRecovery, SeedSweptFaultStormNeverWedgesTheSupervisor) {
  // Mixed fault storm across seeds: whatever the byte stream does, the
  // supervisor must keep cycling and end every run having re-armed.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::unique_ptr<body::Subject> subject;
    SupervisedSessionConfig cfg;
    cfg.faults.seed = seed;
    cfg.faults.byte_drop_prob = 0.001;
    cfg.faults.bit_flip_prob = 0.002;
    cfg.faults.partial_write_prob = 0.01;
    cfg.faults.latency_burst_prob = 0.02;
    cfg.faults.latency_s = 0.3;
    cfg.faults.disconnect_period_s = 5.0;
    cfg.faults.disconnect_duration_s = 0.5;
    SupervisedSession session(cfg, make_sim(subject));
    session.advance(18.0);
    EXPECT_GE(session.supervisor().health().rearm_count, 1u)
        << "seed " << seed;
    EXPECT_GT(session.client().reads_decoded(), 0u) << "seed " << seed;
  }
}

// --- graceful degradation acceptance ---------------------------------------

struct SampledRun {
  std::vector<double> rate_bpm;
  std::vector<std::uint8_t> healthy;  // SignalHealth::Ok at sample time
  std::size_t flagged = 0;            // samples not Ok after warmup
};

SampledRun run_monitored(const FaultPlan& faults, double duration_s) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults = faults;
  SupervisedSession session(cfg, make_sim(subject));

  core::RealtimePipeline pipeline{core::PipelineConfig{}};
  double last_pushed = -1.0;
  session.client().set_read_callback([&](const core::TagRead& r) {
    // Host-side sanity gate: a bit-flipped timestamp that jumped out of
    // the plausible window must not drag the pipeline clock with it.
    const double now = session.now_s();
    // Legit reads are never from the future (bursts only delay them),
    // so the forward bound is tight: a small forward-corrupted stamp
    // would otherwise drag last_pushed ahead and shadow real reads.
    if (r.time_s < now - 5.0 || r.time_s > now + 0.05) return;
    if (r.time_s < last_pushed) return;  // decoder-garbled ordering
    last_pushed = r.time_s;
    pipeline.push(r);
  });

  SampledRun out;
  const int steps = static_cast<int>(duration_s);
  for (int step = 0; step < steps; ++step) {
    session.advance(1.0);
    pipeline.advance_to(session.now_s());
    if (step + 1 < 16) continue;  // pipeline warm-up
    const core::RateSummary* a = pipeline.rate_summary(1);
    const bool ok =
        a != nullptr && a->health == core::SignalHealth::Ok && a->reliable;
    out.rate_bpm.push_back(a == nullptr ? 0.0 : a->rate_bpm);
    out.healthy.push_back(ok ? 1 : 0);
    if (!ok) ++out.flagged;
  }
  return out;
}

TEST(SessionRecovery, FaultyRunTracksCleanRunOnHealthyWindows) {
  // The ISSUE's acceptance scenario: ~1% byte corruption, a periodic
  // 2-second hard outage and latency stalls. The supervisor must keep
  // re-arming, the pipeline must flag the gap windows via SignalHealth,
  // and on the windows it still calls Ok the breathing-rate estimate
  // must stay within 0.5 bpm of the fault-free run.
  const double duration_s = 135.0;
  const SampledRun clean = run_monitored(FaultPlan::none(), duration_s);

  FaultPlan storm;
  storm.seed = 2024;
  storm.bit_flip_prob = 0.01;  // ~1% of transported bytes corrupted
  storm.latency_burst_prob = 0.02;
  storm.latency_s = 0.4;
  storm.disconnect_period_s = 45.0;
  storm.disconnect_duration_s = 2.0;
  const SampledRun faulty = run_monitored(storm, duration_s);

  ASSERT_EQ(clean.rate_bpm.size(), faulty.rate_bpm.size());
  const std::size_t n = clean.rate_bpm.size();
  ASSERT_GT(n, 60u);

  // The clean run is healthy for nearly the whole span and nails the
  // metronome on every window it calls healthy. (The estimator itself
  // drops rate.reliable on the odd window — those are flagged, which is
  // the contract: wrong-and-flagged is fine, wrong-and-Ok is not.)
  EXPECT_LT(clean.flagged, n / 5);
  for (std::size_t i = 0; i < n; ++i) {
    if (clean.healthy[i]) {
      EXPECT_NEAR(clean.rate_bpm[i], kTrueRateBpm, 1.0) << "sample " << i;
    }
  }

  // Compare the runs where BOTH claim health: that is the set of windows
  // the degradation machinery vouches for under faults.
  std::vector<std::uint8_t> both(n);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    both[i] = clean.healthy[i] && faulty.healthy[i];
    compared += both[i];
  }
  ASSERT_GT(compared, 10u);  // outage-free stretches still vouched for

  double clean_mean = 0.0, faulty_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!both[i]) continue;
    clean_mean += clean.rate_bpm[i];
    faulty_mean += faulty.rate_bpm[i];
  }
  clean_mean /= static_cast<double>(compared);
  faulty_mean /= static_cast<double>(compared);
  // The ISSUE bound: on healthy windows the faulty run's rate stays
  // within 0.5 bpm of the fault-free run.
  EXPECT_NEAR(faulty_mean, clean_mean, 0.5);
  // Per-window the residual read loss costs at most ~1.5 bpm of jitter.
  const double worst = core::max_rate_error_masked(
      faulty.rate_bpm, clean.rate_bpm, both);
  EXPECT_LE(worst, 1.5);
  const double acc = core::mean_accuracy_masked(
      faulty.rate_bpm, clean.rate_bpm, both);
  EXPECT_GT(acc, 0.95);

  // The outages were noticed, not glossed over.
  EXPECT_GT(faulty.flagged, 0u);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

double gauge_value(const obs::MetricsSnapshot& snap, const std::string& name,
                   const std::string& label_value = {}) {
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name && g.label_value == label_value) return g.value;
  }
  ADD_FAILURE() << "gauge not found: " << name << " " << label_value;
  return 0.0;
}

// An observability hub bound to the supervisor must mirror every
// SupervisorHealth field through a faulted run: llrp_* counters equal
// the health struct, the state gauge tracks the live enum, time-in-state
// gauges match per state, and every state change leaves exactly one
// Instant mark on the "llrp.session" trace stage.
TEST(SessionRecovery, ObservabilityMirrorsSupervisorHealth) {
  std::unique_ptr<body::Subject> subject;
  SupervisedSessionConfig cfg;
  cfg.faults.seed = 31;
  cfg.faults.disconnect_period_s = 4.0;
  cfg.faults.disconnect_duration_s = 0.75;
  SupervisedSession session(cfg, make_sim(subject));

  obs::Observability hub;
  session.supervisor().bind_observability(hub);
  session.advance(21.5);  // outages at t = 4, 8, 12, 16, 20

  const SupervisorHealth& health = session.supervisor().health();
  const obs::MetricsSnapshot snap = hub.metrics().snapshot();
  EXPECT_EQ(counter_value(snap, "llrp_reconnects_total"), health.reconnects);
  EXPECT_EQ(counter_value(snap, "llrp_reconnect_failures_total"),
            health.reconnect_failures);
  EXPECT_EQ(counter_value(snap, "llrp_watchdog_fires_total"),
            health.watchdog_fires);
  EXPECT_EQ(counter_value(snap, "llrp_handshake_failures_total"),
            health.handshake_failures);
  EXPECT_EQ(counter_value(snap, "llrp_handshake_retransmits_total"),
            health.handshake_retransmits);
  EXPECT_EQ(counter_value(snap, "llrp_rearms_total"), health.rearm_count);
  EXPECT_EQ(counter_value(snap, "llrp_keepalives_sent_total"),
            health.keepalives_sent);
  EXPECT_EQ(counter_value(snap, "llrp_state_changes_total"),
            health.state_changes);
  // The scenario actually exercised the recovery path.
  EXPECT_GE(health.reconnects, 5u);

  EXPECT_DOUBLE_EQ(
      gauge_value(snap, "llrp_session_state"),
      static_cast<double>(session.supervisor().state()));
  for (std::size_t i = 0; i < kSessionStateCount; ++i) {
    EXPECT_DOUBLE_EQ(
        gauge_value(snap, "llrp_time_in_state_seconds",
                    session_state_name(static_cast<SessionState>(i))),
        health.time_in_state_s[i])
        << session_state_name(static_cast<SessionState>(i));
  }

  const obs::TraceSnapshot trace = hub.trace().snapshot();
  EXPECT_EQ(trace.dropped, 0u);
  std::size_t marks = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (trace.stages[e.stage] == "llrp.session" &&
        e.kind == obs::SpanKind::Instant)
      ++marks;
  }
  EXPECT_EQ(marks, health.state_changes);
}

}  // namespace
}  // namespace tagbreathe::llrp
