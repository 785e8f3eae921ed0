#include "telemetry/service.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/observability.hpp"

namespace tagbreathe::telemetry {

namespace {

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

void TelemetryServiceConfig::validate() const {
  bus.validate();
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("TelemetryServiceConfig: " + what);
  };
  if (heartbeat_timeout_s < 0.0) bad("heartbeat_timeout_s must be >= 0");
  if (max_events_per_pump == 0) bad("max_events_per_pump must be positive");
  if (max_frame_payload < 64) bad("max_frame_payload too small for any frame");
  if (max_inflight_bytes == 0) bad("max_inflight_bytes must be positive");
}

std::string handle_http_request(const std::string& request,
                                const obs::Observability* hub) {
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return http_response("400 Bad Request", "text/plain", "bad request\n");
  const std::string method = line.substr(0, sp1);
  const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET")
    return http_response("405 Method Not Allowed", "text/plain",
                         "GET only\n");
  if (path == "/healthz")
    return http_response("200 OK", "text/plain", "ok\n");
  if (path == "/metrics" || path == "/metrics.json") {
    if (hub == nullptr)
      return http_response("503 Service Unavailable", "text/plain",
                           "no observability hub bound\n");
    const obs::ObservabilitySnapshot snap = hub->snapshot();
    if (path == "/metrics")
      return http_response("200 OK", "text/plain; version=0.0.4",
                           obs::to_prometheus(snap));
    return http_response("200 OK", "application/json", obs::to_json(snap));
  }
  return http_response("404 Not Found", "text/plain", "not found\n");
}

struct TelemetryService::Connection {
  std::uint64_t id = 0;
  llrp::ByteChannel* channel = nullptr;
  enum class Mode { Undecided, Framed, Http, Closed } mode = Mode::Undecided;
  FrameParser parser;
  std::uint64_t subscription = 0;  // 0 = none yet
  double last_heard_s = 0.0;
  std::string http_buffer;

  Connection(std::size_t max_payload) : parser(max_payload) {}
};

TelemetryService::TelemetryService(TelemetryServiceConfig config,
                                   EventBus::WardFn ward_of)
    : config_(config), bus_(config.bus, std::move(ward_of)) {
  config_.validate();
}

TelemetryService::~TelemetryService() = default;

std::uint64_t TelemetryService::accept(llrp::ByteChannel& channel,
                                       double now_s) {
  auto conn = std::make_unique<Connection>(config_.max_frame_payload);
  conn->id = next_conn_id_++;
  conn->channel = &channel;
  conn->last_heard_s = now_s;
  ++counters_.accepted;
  const std::uint64_t id = conn->id;
  connections_.emplace(id, std::move(conn));
  return id;
}

void TelemetryService::send(Connection& conn, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  conn.channel->write(llrp::Side::Reader, bytes);
}

void TelemetryService::close_locked(Connection& conn, ShedReason reason,
                                    bool send_shed) {
  if (conn.mode == Connection::Mode::Closed) return;
  if (conn.subscription != 0) bus_.shed(conn.subscription, reason);
  if (send_shed && conn.mode == Connection::Mode::Framed) {
    send(conn, ShedFrame{reason});
    ++counters_.shed_frames_sent;
  }
  conn.mode = Connection::Mode::Closed;
  ++counters_.closed;
}

void TelemetryService::close(std::uint64_t conn_id, ShedReason reason) {
  const auto it = connections_.find(conn_id);
  if (it != connections_.end()) close_locked(*it->second, reason, true);
}

void TelemetryService::handle_frame(Connection& conn, const Frame& frame,
                                    double now_s) {
  conn.last_heard_s = now_s;
  if (const auto* sub = std::get_if<SubscribeFrame>(&frame)) {
    if (conn.subscription != 0) {
      // One subscription per connection; a second Subscribe is a
      // protocol error.
      ++counters_.protocol_errors;
      close_locked(conn, ShedReason::ProtocolError, true);
      return;
    }
    EventBus::ResumeResult rr;
    conn.subscription =
        bus_.subscribe(sub->filter, sub->policy, sub->resume_cursor, &rr);
    ++counters_.subscriptions;
    SubAckFrame ack;
    ack.subscription_id = conn.subscription;
    ack.next_seq = rr.next_seq;
    ack.replayed = rr.replayed;
    ack.gap = rr.gap;
    send(conn, ack);
    return;
  }
  if (std::holds_alternative<HeartbeatFrame>(frame)) {
    ++counters_.heartbeats;
    return;
  }
  // Clients have no business sending server->client frames.
  ++counters_.protocol_errors;
  close_locked(conn, ShedReason::ProtocolError, true);
}

void TelemetryService::service_connection(Connection& conn, double now_s) {
  // --- ingest client bytes -------------------------------------------------
  const std::vector<std::uint8_t> bytes =
      conn.channel->read(llrp::Side::Reader);
  if (!bytes.empty() && conn.mode == Connection::Mode::Undecided)
    conn.mode = bytes[0] == 0x54 ? Connection::Mode::Framed
                                 : Connection::Mode::Http;

  if (conn.mode == Connection::Mode::Http) {
    conn.http_buffer.append(bytes.begin(), bytes.end());
    if (conn.http_buffer.find("\r\n\r\n") != std::string::npos ||
        conn.http_buffer.find("\n\n") != std::string::npos) {
      ++counters_.http_requests;
      const std::string response =
          handle_http_request(conn.http_buffer, hub_);
      conn.channel->write(
          llrp::Side::Reader,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(response.data()),
              response.size()));
      conn.mode = Connection::Mode::Closed;
      ++counters_.closed;
    }
    return;
  }

  if (conn.mode == Connection::Mode::Framed) {
    conn.parser.feed(bytes);
    try {
      while (auto frame = conn.parser.next()) {
        handle_frame(conn, *frame, now_s);
        if (conn.mode != Connection::Mode::Framed) return;
      }
    } catch (const llrp::DecodeError&) {
      ++counters_.protocol_errors;
      close_locked(conn, ShedReason::ProtocolError, true);
      return;
    }
  }

  // --- heartbeat timeout ---------------------------------------------------
  if (conn.mode == Connection::Mode::Framed && conn.subscription != 0 &&
      config_.heartbeat_timeout_s > 0.0 &&
      now_s - conn.last_heard_s > config_.heartbeat_timeout_s) {
    ++counters_.heartbeat_timeouts;
    close_locked(conn, ShedReason::HeartbeatTimeout, true);
    return;
  }

  // --- drain the subscription into Event frames ----------------------------
  if (conn.mode == Connection::Mode::Framed && conn.subscription != 0) {
    // Send-side backpressure: a consumer that stopped reading keeps its
    // bytes in flight; we stop draining so the bounded bus queue backs
    // up and the ladder (not the channel) absorbs the overload.
    if (conn.channel->pending(llrp::Side::Client) > config_.max_inflight_bytes)
      return;
    std::vector<TelemetryEvent> events;
    const EventBus::DrainResult dr =
        bus_.drain(conn.subscription, events, config_.max_events_per_pump);
    if (dr.shed) {
      // The bus shed this subscriber (slow-consumer ladder or overflow
      // Disconnect policy) — tell the client why, then hang up.
      send(conn, ShedFrame{dr.shed_reason});
      ++counters_.shed_frames_sent;
      conn.mode = Connection::Mode::Closed;
      ++counters_.closed;
      return;
    }
    if (dr.gap_dropped > 0) {
      send(conn, GapFrame{dr.gap_next_seq, dr.gap_dropped});
      ++counters_.gap_frames_sent;
    }
    for (const TelemetryEvent& event : events) {
      send(conn, EventFrame{event});
      ++counters_.events_sent;
    }
  }
}

void TelemetryService::pump(double now_s) {
  // Ladder first: it judges queue backlogs as they stood between pumps
  // (and samples the bus gauges before any HTTP scrape this pump
  // answers).
  bus_.tick();
  for (auto& [id, conn] : connections_) {
    (void)id;
    if (conn->mode != Connection::Mode::Closed)
      service_connection(*conn, now_s);
  }
  // Drop closed connections from the registry (their channels belong to
  // the caller; subscriptions stay in the bus for post-run audits).
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->mode == Connection::Mode::Closed)
      it = connections_.erase(it);
    else
      ++it;
  }
  publish_gauges();
}

void TelemetryService::shutdown() {
  for (auto& [id, conn] : connections_) {
    (void)id;
    close_locked(*conn, ShedReason::ServerShutdown, true);
  }
  connections_.clear();
  publish_gauges();
}

bool TelemetryService::connection_open(std::uint64_t conn_id) const {
  const auto it = connections_.find(conn_id);
  return it != connections_.end() &&
         it->second->mode != Connection::Mode::Closed;
}

std::size_t TelemetryService::open_connections() const {
  std::size_t n = 0;
  for (const auto& [id, conn] : connections_) {
    (void)id;
    if (conn->mode != Connection::Mode::Closed) ++n;
  }
  return n;
}

std::uint64_t TelemetryService::subscription_of(std::uint64_t conn_id) const {
  const auto it = connections_.find(conn_id);
  return it == connections_.end() ? 0 : it->second->subscription;
}

void TelemetryService::bind_observability(obs::Observability& hub) {
  hub_ = &hub;
  bus_.bind_observability(hub);
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    sink.emit("telemetry_connections_accepted_total", counters_.accepted);
    sink.emit("telemetry_connections_closed_total", counters_.closed);
    sink.emit("telemetry_events_sent_total", counters_.events_sent);
    sink.emit("telemetry_gap_frames_total", counters_.gap_frames_sent);
    sink.emit("telemetry_shed_frames_total", counters_.shed_frames_sent);
    sink.emit("telemetry_protocol_errors_total", counters_.protocol_errors);
    sink.emit("telemetry_heartbeat_timeouts_total",
              counters_.heartbeat_timeouts);
    sink.emit("telemetry_http_requests_total", counters_.http_requests);
  });
  open_conns_ = &m.gauge("telemetry_open_connections");
  publish_gauges();
}

void TelemetryService::publish_gauges() {
  if (open_conns_ != nullptr)
    open_conns_->set(static_cast<double>(open_connections()));
}

}  // namespace tagbreathe::telemetry
