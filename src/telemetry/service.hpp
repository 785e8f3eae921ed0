// TelemetryService: serves the merged fleet event stream to clients
// (ISSUE 7 tentpole, server half).
//
// One service instance owns an EventBus and a set of connections, each
// an llrp::ByteChannel (so FaultyChannel fault injection applies
// unchanged). The service never blocks on a connection: pump(now_s)
// does one bounded pass — read client frames, answer Subscribe with
// SubAck (resume accounting included), track Heartbeats, drain each
// subscription's bounded queue into Event frames (preceded by a Gap
// frame when the queue shed events since the last drain), and enforce
// the heartbeat timeout and the bus's slow-consumer ladder (a shed
// subscriber gets a final Shed frame naming the reason, then the
// connection closes).
//
// The same listener doubles as a minimal HTTP scrape endpoint: a
// connection whose first byte is not the frame magic's 'T' is treated
// as an HTTP request; GET /metrics answers with the byte-stable
// Prometheus exposition, GET /metrics.json with the JSON export and
// GET /healthz with a liveness probe — the ISSUE-5 exporters, served.
//
// Wire side convention: the service is llrp::Side::Reader, clients are
// llrp::Side::Client (same orientation as the reader protocol: the
// party that accepts is the Reader side).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "llrp/transport.hpp"
#include "telemetry/event_bus.hpp"

namespace tagbreathe::telemetry {

struct TelemetryServiceConfig {
  EventBusConfig bus{};
  /// A streaming client silent (no Heartbeat, no frame at all) for
  /// longer than this is shed with ShedReason::HeartbeatTimeout.
  /// 0 disables the timeout.
  double heartbeat_timeout_s = 5.0;
  /// Per-connection, per-pump delivery bound: keeps one fat subscriber
  /// from monopolising a pump.
  std::size_t max_events_per_pump = 64;
  /// FrameParser payload bound for client->server frames.
  std::size_t max_frame_payload = 1 << 12;
  /// Send-side backpressure: while a connection has more than this many
  /// unread bytes in flight, its subscription is not drained — the
  /// bounded bus queue backs up instead, which is what trips the
  /// Lagging/Shed ladder for a consumer that stopped reading. (The
  /// in-memory channel itself is unbounded; this cap stands in for a
  /// full TCP send buffer.)
  std::size_t max_inflight_bytes = 16 * 1024;

  void validate() const;
};

struct ServiceCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t events_sent = 0;
  std::uint64_t gap_frames_sent = 0;
  std::uint64_t shed_frames_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t heartbeat_timeouts = 0;
  std::uint64_t http_requests = 0;
};

/// Pure HTTP responder behind the scrape endpoint (unit-testable
/// without a service). `request` is the raw request bytes up to and
/// including the blank line; `hub` may be null (503 on metric paths).
std::string handle_http_request(const std::string& request,
                                const obs::Observability* hub);

class TelemetryService {
 public:
  explicit TelemetryService(TelemetryServiceConfig config,
                            EventBus::WardFn ward_of = nullptr);
  ~TelemetryService();
  TelemetryService(const TelemetryService&) = delete;
  TelemetryService& operator=(const TelemetryService&) = delete;

  /// Registers a connection. The channel must outlive it (or be
  /// dropped via close()/connection death first). Returns the
  /// connection id.
  std::uint64_t accept(llrp::ByteChannel& channel, double now_s);

  /// Server-side close. Sheds any attached subscription with `reason`
  /// and emits a final Shed frame.
  void close(std::uint64_t conn_id, ShedReason reason);

  /// One bounded service pass at stream time `now_s`; also ticks the
  /// bus ladder. Call at pump cadence.
  void pump(double now_s);

  /// Sheds every connection with ServerShutdown.
  void shutdown();

  bool connection_open(std::uint64_t conn_id) const;
  std::size_t open_connections() const;
  /// Subscription id attached to a connection (0 = none yet / HTTP).
  std::uint64_t subscription_of(std::uint64_t conn_id) const;

  EventBus& bus() noexcept { return bus_; }
  const EventBus& bus() const noexcept { return bus_; }
  ServiceCounters counters() const noexcept { return counters_; }

  /// Binds the bus's telemetry_* instruments plus the service-level
  /// connection counters, and makes `hub` the scrape endpoint's source.
  void bind_observability(obs::Observability& hub);

 private:
  struct Connection;

  void service_connection(Connection& conn, double now_s);
  void handle_frame(Connection& conn, const Frame& frame, double now_s);
  void send(Connection& conn, const Frame& frame);
  void close_locked(Connection& conn, ShedReason reason, bool send_shed);
  void publish_gauges();

  TelemetryServiceConfig config_;
  EventBus bus_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  ServiceCounters counters_;
  obs::Observability* hub_ = nullptr;

  obs::Gauge* open_conns_ = nullptr;  // null until bind_observability
  obs::CounterCollector collector_;  // last: retires before fields go
};

}  // namespace tagbreathe::telemetry
