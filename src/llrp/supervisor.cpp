#include "llrp/supervisor.hpp"

#include <algorithm>

#include "core/ingest.hpp"
#include "obs/observability.hpp"

namespace tagbreathe::llrp {

const char* session_state_name(SessionState state) noexcept {
  switch (state) {
    case SessionState::Disconnected: return "Disconnected";
    case SessionState::Connecting: return "Connecting";
    case SessionState::Configuring: return "Configuring";
    case SessionState::Streaming: return "Streaming";
    case SessionState::Degraded: return "Degraded";
  }
  return "?";
}

SessionSupervisor::SessionSupervisor(SupervisorConfig config,
                                     LlrpClient& client,
                                     FaultyChannel* channel)
    : config_(config),
      client_(client),
      channel_(channel),
      rng_(config.seed),
      backoff_(config.backoff_initial_s) {}

void SessionSupervisor::route_reads_to(core::IngestQueue& queue) {
  client_.set_read_callback([&queue](const core::TagRead& read) {
    queue.try_push(read);
  });
}

bool SessionSupervisor::transport_connected() const noexcept {
  return channel_ == nullptr || channel_->connected();
}

bool SessionSupervisor::dial() noexcept {
  return channel_ == nullptr || channel_->try_reconnect();
}

void SessionSupervisor::enter(SessionState next, double now_s) {
  if (next == state_) return;
  state_ = next;
  ++health_.state_changes;
  if (obs_.hub != nullptr) {
    obs_.hub->trace().record(obs_.trace_stage, obs::SpanKind::Instant, now_s,
                             static_cast<std::uint64_t>(next));
    obs_.session_state->set(static_cast<double>(next));
  }
  if (next == SessionState::Streaming || next == SessionState::Degraded) {
    // Probe promptly when entering a live state.
    next_keepalive_ = now_s;
  }
}

void SessionSupervisor::schedule_retry(double now_s) {
  const double jitter =
      1.0 + config_.backoff_jitter * (2.0 * rng_.uniform() - 1.0);
  next_attempt_ = now_s + backoff_ * std::max(jitter, 0.0);
  backoff_ = std::min(backoff_ * config_.backoff_multiplier,
                      config_.backoff_max_s);
}

void SessionSupervisor::tear_down(double now_s) {
  if (channel_ != nullptr) channel_->force_disconnect();
  enter(SessionState::Disconnected, now_s);
  schedule_retry(now_s);
}

void SessionSupervisor::observe_traffic(double now_s) {
  const std::size_t counter = client_.reports_received() +
                              client_.keepalives_received() +
                              client_.reader_events().size();
  if (counter != traffic_counter_seen_) {
    traffic_counter_seen_ = counter;
    last_traffic_s_ = now_s;
  }
}

void SessionSupervisor::drive_handshake(double now_s) {
  const StatusCode add = client_.last_status(MessageType::AddRoSpecResponse);
  const StatusCode enable =
      client_.last_status(MessageType::EnableRoSpecResponse);
  const StatusCode start =
      client_.last_status(MessageType::StartRoSpecResponse);

  const auto rejected = [](StatusCode code) {
    return code != StatusCode::Success && code != StatusCode::NoResponse;
  };
  if (rejected(add) || rejected(enable) || rejected(start) ||
      now_s >= handshake_deadline_) {
    ++health_.handshake_failures;
    ++consecutive_failures_;
    tear_down(now_s);
    return;
  }
  if (add == StatusCode::Success && !enable_sent_) {
    client_.send_enable_rospec();
    enable_sent_ = true;
    handshake_resend_ = now_s + config_.handshake_retry_s;
    return;
  }
  if (enable == StatusCode::Success && !start_sent_) {
    client_.send_start_rospec();
    start_sent_ = true;
    handshake_resend_ = now_s + config_.handshake_retry_s;
    return;
  }
  if (start == StatusCode::Success) {
    ++health_.rearm_count;
    consecutive_failures_ = 0;
    backoff_ = config_.backoff_initial_s;  // healthy again
    last_traffic_s_ = now_s;
    enter(SessionState::Streaming, now_s);
    return;
  }

  // A stage is stalled: its request or response was lost or corrupted
  // in transit. Retransmit the stalled request instead of burning the
  // whole attempt — the transport is up, only one frame died.
  if (now_s >= handshake_resend_) {
    if (add == StatusCode::NoResponse) {
      // The reader may or may not have applied the earlier ADD; DELETE
      // first so the retransmitted ADD cannot be rejected as duplicate.
      client_.send_delete_rospec();
      client_.send_add_rospec();
    } else if (!start_sent_) {
      client_.send_enable_rospec();
    } else {
      client_.send_start_rospec();
    }
    ++health_.handshake_retransmits;
    handshake_resend_ = now_s + config_.handshake_retry_s;
  }
}

SessionProbe SessionSupervisor::probe(double now_s) const noexcept {
  SessionProbe p;
  p.state = state_;
  p.streaming = streaming();
  p.backoff_s = backoff_;
  p.consecutive_failures = consecutive_failures_;
  if (streaming() && now_s >= last_traffic_s_)
    p.silence_s = now_s - last_traffic_s_;
  return p;
}

void SessionSupervisor::publish_gauges() {
  if (obs_.hub == nullptr) return;
  obs_.session_state->set(static_cast<double>(state_));
  for (std::size_t i = 0; i < kSessionStateCount; ++i)
    obs_.time_in_state[i]->set(health_.time_in_state_s[i]);
}

void SessionSupervisor::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    sink.emit("llrp_reconnects_total", health_.reconnects);
    sink.emit("llrp_reconnect_failures_total", health_.reconnect_failures);
    sink.emit("llrp_watchdog_fires_total", health_.watchdog_fires);
    sink.emit("llrp_handshake_failures_total", health_.handshake_failures);
    sink.emit("llrp_handshake_retransmits_total",
              health_.handshake_retransmits);
    sink.emit("llrp_rearms_total", health_.rearm_count);
    sink.emit("llrp_keepalives_sent_total", health_.keepalives_sent);
    sink.emit("llrp_state_changes_total", health_.state_changes);
  });
  obs_.session_state = &m.gauge("llrp_session_state");
  for (std::size_t i = 0; i < kSessionStateCount; ++i) {
    obs_.time_in_state[i] =
        &m.gauge("llrp_time_in_state_seconds", "state",
                 session_state_name(static_cast<SessionState>(i)));
  }
  obs_.trace_stage = hub.trace().register_stage("llrp.session");
  obs_.hub = &hub;
  publish_gauges();
}

void SessionSupervisor::advance_to(double now_s) {
  now_s = std::max(now_s, last_now_);
  health_.time_in_state_s[static_cast<std::size_t>(state_)] +=
      now_s - last_now_;
  last_now_ = now_s;

  client_.poll();
  observe_traffic(now_s);

  // A severed transport is detected immediately in every live state
  // when socket errors are surfaced; silent stalls fall through to the
  // watchdog below.
  if (config_.detect_transport_loss && !transport_connected() &&
      state_ != SessionState::Disconnected) {
    enter(SessionState::Disconnected, now_s);
    schedule_retry(now_s);
    publish_gauges();
    return;
  }

  switch (state_) {
    case SessionState::Disconnected: {
      if (now_s < next_attempt_) break;
      if (!dial()) {
        ++health_.reconnect_failures;
        ++consecutive_failures_;
        schedule_retry(now_s);
        break;
      }
      ++health_.reconnects;
      enter(SessionState::Connecting, now_s);
      break;
    }
    case SessionState::Connecting: {
      // Fresh stream: drop any half-received frame and stale statuses,
      // clear whatever ROSpec the reader still holds, re-add ours.
      client_.reset_session_state();
      client_.send_stop_rospec();
      // STOP before DELETE mirrors LTK teardown; both are idempotent on
      // our endpoint. DELETE is sent via the raw spec ID message.
      client_.send_delete_rospec();
      client_.send_add_rospec();
      enable_sent_ = false;
      start_sent_ = false;
      handshake_deadline_ = now_s + config_.handshake_timeout_s;
      handshake_resend_ = now_s + config_.handshake_retry_s;
      enter(SessionState::Configuring, now_s);
      break;
    }
    case SessionState::Configuring: {
      drive_handshake(now_s);
      break;
    }
    case SessionState::Streaming:
    case SessionState::Degraded: {
      if (now_s >= next_keepalive_) {
        client_.send_keepalive();
        ++health_.keepalives_sent;
        next_keepalive_ = now_s + config_.keepalive_period_s;
      }
      const double silence = now_s - last_traffic_s_;
      if (silence >= config_.watchdog_timeout_s) {
        ++health_.watchdog_fires;
        ++consecutive_failures_;
        tear_down(now_s);
      } else if (silence >= config_.degraded_after_s) {
        enter(SessionState::Degraded, now_s);
      } else {
        enter(SessionState::Streaming, now_s);
      }
      break;
    }
  }
  publish_gauges();
}

}  // namespace tagbreathe::llrp
