#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/metrics.hpp"
#include "llrp/message.hpp"
#include "llrp/transport.hpp"
#include "obs/observability.hpp"
#include "rfid/channel_plan.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using telemetry::FilterKind;
using telemetry::OverflowPolicy;

// ---------------------------------------------------------------------------
// Plumbing

/// In-memory subscriber connection that counts the bytes the service
/// sends (the wire cost of fan-out).
class CountingChannel final : public llrp::ByteChannel {
 public:
  void write(Side from, std::span<const std::uint8_t> bytes) override {
    if (from == Side::Reader) server_bytes_ += bytes.size();
    inner_.write(from, bytes);
  }
  std::vector<std::uint8_t> read(Side to, std::size_t max_bytes) override {
    return inner_.read(to, max_bytes);
  }
  std::size_t pending(Side to) const noexcept override {
    return inner_.pending(to);
  }
  std::uint64_t server_bytes() const noexcept { return server_bytes_; }

 private:
  llrp::DuplexChannel inner_;
  std::uint64_t server_bytes_ = 0;
};

enum Phase : int { kPrefill = 0, kMeasured = 1, kTraced = 2 };

struct Slice {
  std::size_t index = 0;
  int phase = kPrefill;
  double due_wall = 0.0;
  double handoff_wall = 0.0;
  std::vector<std::vector<std::uint8_t>> wire;
  SliceStats stats;
};

/// Generator -> coordinator hand-off. Unbounded while measuring (the
/// schedule never waits for the system); the prefill producer waits
/// for room so prefill does not park the whole replay in memory.
class SliceQueue {
 public:
  void push(Slice slice) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slices_.push_back(std::move(slice));
    }
    ready_.notify_all();
  }
  bool pop(Slice& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return !slices_.empty() || closed_; });
    if (slices_.empty()) return false;
    out = std::move(slices_.front());
    slices_.pop_front();
    room_.notify_all();
    return true;
  }
  /// Waits until fewer than `n` slices are queued (or the queue closed).
  void wait_below(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    room_.wait(lock, [this, n] { return slices_.size() < n || closed_; });
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    room_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable room_;
  std::deque<Slice> slices_;
  bool closed_ = false;
};

/// Wall stamps of one measured slice, in processing order.
struct SliceSpans {
  double due = 0.0;
  double handoff = 0.0;
  double start = 0.0;
  double decoded = 0.0;
  double offered = 0.0;
  double pumped = 0.0;
  double serviced = 0.0;
  double clients_start = 0.0;
  double clients_end = 0.0;
  double publish_s = 0.0;   // bus publishes inside the pump (traced)
  double critical_s = 0.0;  // slowest shard-thread stripe (traced)
  double monitor_share = 0.0;
  bool tick = false;
};

struct EventSample {
  double latency_s = 0.0;
  std::uint32_t slice = 0;
  double client_s = 0.0;  // clients_start -> this event parsed
};

/// A recorded span (written at exit in trace runs).
struct Span {
  const char* name = "";
  std::uint32_t slice = 0;
  std::uint32_t parent = 0;  // 0 = root
  double start = 0.0;
  double end = 0.0;
  std::uint64_t count = 0;
};

// ---------------------------------------------------------------------------
// Run state shared by the callbacks

struct Ledger {
  const Workload* workload = nullptr;
  const Generator* truth = nullptr;
  telemetry::TelemetryService* service = nullptr;
  int phase = kPrefill;
  bool timing_publish = false;
  std::uint32_t slice = 0;
  double prefill_end_s = 0.0;
  DueSchedule schedule{0.0, 0.0};
  double clients_start = 0.0;

  // Fleet side.
  std::uint64_t hash = kFnvOffset;
  std::uint64_t published_measured = 0;
  std::uint64_t published_traced = 0;
  double publish_s = 0.0;  // current slice

  // Primary subscriber side.
  std::vector<EventSample> samples;
  std::uint64_t primary_measured = 0;
  double accuracy_sum = 0.0;
  std::size_t accuracy_n = 0;
  std::vector<std::uint8_t> user_heard;  // per user, measured phase

  void on_fleet_event(const fleet::FleetEvent& fe) {
    const core::PipelineEvent& e = fe.event;
    // Packed field bytes (no padding) keep the hash layout-independent.
    char record[27];
    std::memcpy(record, &e.user_id, 8);
    std::memcpy(record + 8, &e.time_s, 8);
    std::memcpy(record + 16, &e.rate_bpm, 8);
    record[24] = static_cast<char>(e.kind);
    record[25] = static_cast<char>(e.reliable);
    record[26] = static_cast<char>(e.health);
    hash = fnv1a_line(hash, std::string_view(record, sizeof(record)));
    if (e.time_s > prefill_end_s) ++published_measured;
    if (phase == kTraced) ++published_traced;
    if (timing_publish) {
      const double t = wall_s();
      service->bus().publish(static_cast<std::uint16_t>(fe.shard), e);
      publish_s += wall_s() - t;
    } else {
      service->bus().publish(static_cast<std::uint16_t>(fe.shard), e);
    }
  }

  void on_primary(const telemetry::TelemetryEvent& ev) {
    if (!(ev.time_s > prefill_end_s)) return;
    const double now = wall_s();
    samples.push_back(EventSample{schedule.latency(ev.time_s, now), slice,
                                  now - clients_start});
    ++primary_measured;
    if (ev.user_id >= 1 && ev.user_id <= user_heard.size())
      user_heard[ev.user_id - 1] = 1;
    if (ev.kind == core::PipelineEventKind::RateUpdate) {
      const double window = workload->fleet.pipeline.window_s;
      const double expected =
          truth->truth_bpm(ev.user_id, ev.time_s - window, ev.time_s);
      if (std::isfinite(expected)) {
        accuracy_sum += core::breathing_rate_accuracy(ev.rate_bpm, expected);
        ++accuracy_n;
      }
    }
  }
};

/// Members are destroyed bottom-up: clients and fleet first, then the
/// service, then the channels the service still points at.
struct System {
  std::vector<std::unique_ptr<CountingChannel>> channels;
  std::unique_ptr<telemetry::TelemetryService> service;
  std::unique_ptr<fleet::ReaderFleet> fleet;
  std::vector<std::unique_ptr<telemetry::TelemetryClient>> clients;
};

/// Removes the run's journal directory when the run ends, after the
/// system that writes it is gone.
struct JournalDir {
  std::string path;

  explicit JournalDir(std::string p) : path(std::move(p)) {}
  JournalDir(const JournalDir&) = delete;
  JournalDir& operator=(const JournalDir&) = delete;
  ~JournalDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

/// Constructs fleet, service and subscribers and completes every
/// subscriber's handshake: afterwards the system is ready for reads.
/// An empty `journal_dir` builds the fleet without durability.
std::unique_ptr<System> build_system(const Workload& w, Ledger& ledger,
                                     const std::string& journal_dir,
                                     std::size_t shard_threads) {
  auto sys = std::make_unique<System>();
  const std::size_t per_ward = w.generator.users_per_ward;
  sys->service = std::make_unique<telemetry::TelemetryService>(
      w.service, [per_ward](std::uint64_t user) {
        return static_cast<std::uint32_t>((user - 1) / per_ward);
      });
  fleet::FleetConfig fc = w.fleet;
  fc.shard_threads = std::min(fc.shard_threads, shard_threads);
  fc.durability_directory = journal_dir;
  ledger.service = sys->service.get();
  sys->fleet = std::make_unique<fleet::ReaderFleet>(
      fc, [&ledger](const fleet::FleetEvent& fe) { ledger.on_fleet_event(fe); });

  System* raw = sys.get();
  for (std::size_t i = 0; i < w.subscribers.size(); ++i) {
    telemetry::TelemetryClientConfig cc;
    cc.filter = w.subscribers[i].filter;
    cc.policy = w.subscribers[i].policy;
    cc.seed = i + 1;
    telemetry::TelemetryClient::DialFn dial = [raw](double now_s) {
      raw->channels.push_back(std::make_unique<CountingChannel>());
      llrp::ByteChannel* channel = raw->channels.back().get();
      raw->service->accept(*channel, now_s);
      return channel;
    };
    telemetry::TelemetryClient::EventFn on_event;
    if (i == 0)
      on_event = [&ledger](const telemetry::TelemetryEvent& ev) {
        ledger.on_primary(ev);
      };
    sys->clients.push_back(std::make_unique<telemetry::TelemetryClient>(
        cc, std::move(dial), std::move(on_event)));
  }
  for (int round = 0; round < 2; ++round) {
    for (auto& client : sys->clients) client->step(0.0);
    sys->service->pump(0.0);
  }
  for (auto& client : sys->clients) client->step(0.0);
  for (auto& client : sys->clients) {
    if (client->state() != telemetry::ClientState::Streaming)
      throw std::runtime_error("subscriber handshake did not complete");
  }
  return sys;
}

/// Quantile of a fixed-bucket histogram, linear inside the bucket (the
/// overflow bucket reports its lower bound).
double histogram_quantile(const obs::HistogramSample& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (seen + c >= target && c > 0.0) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      if (i >= h.bounds.size()) return lo;
      return lo + (h.bounds[i] - lo) * (target - seen) / c;
    }
    seen += c;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

obs::HistogramSample merge_histograms(const obs::MetricsSnapshot& snap,
                                      const std::string& name) {
  obs::HistogramSample merged;
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name != name) continue;
    if (merged.counts.empty()) {
      merged.bounds = h.bounds;
      merged.counts.assign(h.counts.size(), 0);
    }
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      merged.counts[i] += h.counts[i];
    merged.count += h.count;
    merged.sum += h.sum;
  }
  return merged;
}

const obs::HistogramSample* find_histogram(const obs::MetricsSnapshot& snap,
                                           const std::string& name,
                                           const std::string& label) {
  for (const obs::HistogramSample& h : snap.histograms)
    if (h.name == name && h.label_value == label) return &h;
  return nullptr;
}

std::string shard_label(std::size_t s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "s%02zu", s);
  return buf;
}

/// Cumulative counters of the ingest front and fleet, summed over
/// readers.
struct FrontCounters {
  std::uint64_t shed = 0, coalesced = 0, drained = 0;
  std::uint64_t admitted = 0, quarantined = 0, routed = 0, suppressed = 0;
  std::uint64_t peak_depth = 0;
};

FrontCounters front_counters(const fleet::ReaderFleet& fleet,
                             std::size_t n_readers) {
  FrontCounters c;
  for (std::size_t r = 0; r < n_readers; ++r) {
    const core::IngestQueueCounters q = fleet.reader_queue_counters(r);
    c.shed += q.shed_oldest;
    c.coalesced += q.coalesced;
    c.drained += q.drained;
    c.peak_depth = std::max<std::uint64_t>(c.peak_depth, q.peak_depth);
  }
  c.admitted = fleet.counters().admitted;
  c.quarantined = fleet.counters().quarantined;
  c.routed = fleet.counters().routed;
  c.suppressed = fleet.counters().handoff_suppressed;
  return c;
}

struct BusTotals {
  std::uint64_t published = 0, dropped = 0, coalesced = 0;
};

BusTotals bus_totals(const telemetry::EventBus& bus) {
  BusTotals t;
  bus.for_each_subscription(
      [&t](std::uint64_t, const telemetry::FilterSpec&,
           telemetry::SubscriberState,
           const telemetry::SubscriptionCounters& c, std::size_t) {
        t.published += c.published;
        t.dropped += c.dropped;
        t.coalesced += c.coalesced;
      });
  return t;
}

/// Per-phase CPU and load marks.
struct PhaseMarks {
  double process_cpu = 0.0;
  double subscriber_cpu = 0.0;
  double tracked_sum = 0.0;
  std::size_t slices = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

// ---------------------------------------------------------------------------
// Workloads

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  Workload w;
  w.name = name;
  GeneratorConfig& g = w.generator;
  g.seed = seed;
  fleet::FleetConfig& f = w.fleet;
  // Pump cadence is 1/32 s: a reader is Degraded after 0.5 s and Dead
  // after 1 s without traffic while it covers users.
  f.degraded_after_windows = 16;
  f.dead_after_windows = 32;
  f.ingest.max_users = 0;
  // One shard worker (started per pump, as the fleet does) and no
  // analysis pool: wall-clock latency then needs one free core, which
  // keeps the ruler steady on a shared VM whose co-tenants take cores
  // away for seconds at a time.
  f.pipeline.analysis_threads = 0;
  f.shard_threads = 1;
  telemetry::TelemetryServiceConfig& s = w.service;
  s.heartbeat_timeout_s = 5.0;
  s.max_inflight_bytes = std::size_t{1} << 26;
  const SubscriberSpec all{{FilterKind::All, 0}, OverflowPolicy::DropOldest, 1};
  const SubscriberSpec alarms{{FilterKind::AlarmOnly, 0},
                              OverflowPolicy::DropOldest, 1};

  if (name == "ward_scale") {
    g.n_users = 1500;
    g.n_readers = 16;
    g.tags_per_user = 1;
    g.read_hz_lo = 1.0;
    g.read_hz_hi = 2.0;
    g.users_per_ward = 100;
    f.n_readers = 16;
    f.n_shards = 8;
    w.journal = false;
    w.subscribers = {all, alarms};
    w.rate_accuracy_floor = 0.8;
  } else if (name == "bedside_dense") {
    g.n_users = 160;
    g.n_readers = 8;
    g.tags_per_user = 3;
    g.antennas = 4;
    g.read_hz_lo = 60.0;
    g.read_hz_hi = 80.0;
    g.hop = true;
    g.overlap_share = 0.15;
    g.users_per_ward = 20;
    f.n_readers = 8;
    f.n_shards = 4;
    f.ingest.queue_capacity = 8192;
    w.journal = true;
    f.journal.fsync_on_commit = false;
    f.journal.segment_max_bytes = std::size_t{4} << 20;
    f.journal.max_segments = 4;
    w.subscribers = {all,
                     {{FilterKind::Ward, 1}, OverflowPolicy::DropOldest, 1},
                     {{FilterKind::User, 7}, OverflowPolicy::DropOldest, 1},
                     alarms};
    w.rate_accuracy_floor = 0.8;
  } else if (name == "ward_churn") {
    g.n_users = 1500;
    g.n_readers = 8;
    g.tags_per_user = 1;
    g.read_hz_lo = 2.0;
    g.read_hz_hi = 4.0;
    g.users_per_ward = 125;
    g.initial_share = 0.6;
    g.arrival_horizon_s = kPrefillS + seconds;
    g.stay_lo_s = 20.0;
    g.stay_hi_s = 80.0;
    g.silent_share = 0.2;
    g.silent_s = 8.0;
    g.apnea_share = 0.1;
    g.apnea_s = 20.0;
    g.events_after_s = 12.0;
    g.events_until_s = kPrefillS + seconds;
    g.blackout_every_s = 5.0;
    g.blackout_s = 3.0;
    f.n_readers = 8;
    f.n_shards = 4;
    // Admission caps below the roster: departed and silent users are
    // evicted (validator LRU parks them, shard LRU forgets them).
    f.ingest.max_users = 165;
    f.pipeline.max_users = 340;
    f.pipeline.skip_clean_users = true;
    f.parked_users_cap = 64;
    w.journal = true;
    f.journal.fsync_on_commit = false;
    f.journal.segment_max_bytes = std::size_t{1} << 20;
    f.journal.max_segments = 4;
    // The slow consumer reads every 3 s: its queue fills and coalesces,
    // and the ladder sheds it after 1.5 s of lagging. The primary's tick
    // burst (the users present) fits the queue.
    s.bus.queue_capacity = 2048;
    s.bus.shed_after_lagging_ticks = 48;
    s.max_inflight_bytes = 16 * 1024;
    w.subscribers = {all,
                     {{FilterKind::All, 0}, OverflowPolicy::CoalescePerUser, 96}};
    w.rate_accuracy_floor = 0.9;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // The primary subscriber never backs up: a whole tick's events fit
  // its queue and one pump delivers them.
  const std::size_t burst = 2 * g.n_users + 1024;
  if (name != "ward_churn") s.bus.queue_capacity = burst;
  s.max_events_per_pump = burst;
  return w;
}

// ---------------------------------------------------------------------------
// The run

RunResult run_workload(const Workload& w, const RunOptions& opt) {
  RunResult result;
  const double slice_s = kSliceS;
  const std::size_t n_prefill =
      static_cast<std::size_t>(std::llround(kPrefillS / slice_s));
  const std::size_t n_measured = static_cast<std::size_t>(
      std::max<long long>(2, std::llround(opt.seconds / slice_s)));
  const std::size_t n_untraced = opt.trace ? n_measured / 2 : n_measured;
  const std::size_t per_tick = static_cast<std::size_t>(
      std::llround(w.fleet.pipeline.update_period_s / slice_s));
  const std::size_t shard_threads =
      std::min(w.fleet.shard_threads, opt.cores > 1 ? opt.cores - 1 : 0);
  const std::size_t n_readers = w.fleet.n_readers;
  const rfid::ChannelPlan plan = rfid::ChannelPlan::paper_plan();
  fs::create_directories(opt.work_dir);

  Generator generator(w.generator);
  Ledger ledger;
  ledger.workload = &w;
  ledger.truth = &generator;
  ledger.prefill_end_s = static_cast<double>(n_prefill) * slice_s;
  ledger.user_heard.assign(w.generator.n_users, 0);

  // The benchmark's own buffers are sized before the RSS baseline so
  // they do not count as the system's growth.
  ledger.samples.reserve(static_cast<std::size_t>(
      1.5 * static_cast<double>(w.generator.n_users) *
      (opt.seconds / w.fleet.pipeline.update_period_s + 2.0)));

  // Declared before the system: the fleet and pipelines bound to it in
  // the traced half must be destroyed first.
  obs::Observability hub(4096);

  // --- setup_s: construct the system several times ----------------------
  // The timed constructions open no journal. Creating the journal's
  // directories and segment files on this VM's ext4 swung from 0.3 ms to
  // 1.5 ms between runs minutes apart, drowning the rest of set-up; the
  // journal open is timed once, on the run's own system, and printed.
  std::vector<double> setup_samples;
  const std::size_t rss_before = resident_bytes();
  for (std::size_t k = 0; k < kSetups; ++k) {
    const double t0 = wall_s();
    std::unique_ptr<System> probe = build_system(w, ledger, "", shard_threads);
    setup_samples.push_back(wall_s() - t0);
  }
  const JournalDir journal(w.journal ? opt.work_dir + "/journal-" + w.name +
                                           "-" + std::to_string(::getpid())
                                     : std::string());
  const double journal_setup_t0 = wall_s();
  std::unique_ptr<System> sys =
      build_system(w, ledger, journal.path, shard_threads);
  const double run_setup_s = wall_s() - journal_setup_t0;
  fleet::ReaderFleet& fleet = *sys->fleet;
  telemetry::TelemetryService& service = *sys->service;

  // --- generator thread --------------------------------------------------
  SliceQueue queue;
  std::promise<double> go_promise;
  std::shared_future<double> go = go_promise.get_future().share();
  std::atomic<bool> stop{false};
  double gen_cpu_marks[3] = {0.0, 0.0, 0.0};  // measured start, traced start, end
  std::exception_ptr gen_error;
  std::thread gen_thread([&] {
    try {
      for (std::size_t k = 0; k < n_prefill + n_measured; ++k) {
        if (stop.load()) break;
        Slice slice;
        slice.index = k;
        slice.phase = k < n_prefill                 ? kPrefill
                      : k < n_prefill + n_untraced  ? kMeasured
                                                    : kTraced;
        if (k == n_prefill) {
          const double origin = go.get();  // waits for the prefill drain
          if (!std::isfinite(origin)) break;
          gen_cpu_marks[0] = thread_cpu_s();
        }
        if (k == n_prefill + n_untraced) gen_cpu_marks[1] = thread_cpu_s();
        const double t0 = static_cast<double>(k) * slice_s;
        const double t1 = static_cast<double>(k + 1) * slice_s;
        slice.stats = generator.make_slice(t0, t1, slice.wire);
        if (slice.phase == kPrefill) {
          queue.wait_below(8);
        } else {
          // A slice's reads exist only once its last instant has passed.
          slice.due_wall = ledger.schedule.due_wall(t1);
          const double wait = slice.due_wall - wall_s();
          if (wait > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        slice.handoff_wall = wall_s();
        queue.push(std::move(slice));
      }
      gen_cpu_marks[2] = thread_cpu_s();
    } catch (...) {
      gen_error = std::current_exception();
    }
    queue.close();
  });

  // --- coordinator -------------------------------------------------------
  std::vector<obs::Histogram*> shard_hist;
  std::vector<obs::Histogram*> stage_hist;
  std::vector<double> shard_sum_before(w.fleet.n_shards, 0.0);
  std::vector<llrp::MessageFramer> framers(n_readers);
  std::vector<std::vector<core::TagRead>> decoded(n_readers);
  std::vector<llrp::TagReportEntry> entries;
  std::vector<SliceSpans> spans(n_measured);
  std::vector<Span> trace_spans;
  std::vector<double> pump_ms_plain, pump_ms_tick, service_ms, gen_lag_ms;
  std::size_t frames_rejected = 0;
  std::size_t subscriber_queue_max = 0;
  PhaseMarks marks[3];
  double subscriber_cpu = 0.0;
  FrontCounters front_at[3];
  BusTotals bus_at[3];
  telemetry::ServiceCounters service_at[3];
  std::uint64_t wire_bytes_at[3] = {0, 0, 0};
  IoCounters io_at[3];
  std::uint64_t reads_traced = 0;
  std::uint64_t offered_measured = 0, duplicates_measured = 0;
  double decode_traced_s = 0.0, offer_traced_s = 0.0, client_traced_s = 0.0;
  double last_t = 0.0;
  std::size_t pump_index = 0;
  const auto server_bytes = [&] {
    std::uint64_t b = 0;
    for (const auto& ch : sys->channels) b += ch->server_bytes();
    return b;
  };
  const auto mark_phase = [&](int p) {
    marks[p].process_cpu = process_cpu_s();
    marks[p].subscriber_cpu = subscriber_cpu;
    front_at[p] = front_counters(fleet, n_readers);
    bus_at[p] = bus_totals(service.bus());
    service_at[p] = service.counters();
    wire_bytes_at[p] = server_bytes();
    io_at[p] = io_counters();
  };

  const double run_start = wall_s();
  const double deadline_prefill = run_start + 100.0;
  double deadline_measured = 0.0;
  int current_phase = kPrefill;
  Slice slice;
  try {
    while (queue.pop(slice)) {
      if (slice.phase != current_phase) {
        if (slice.phase == kTraced) {
          // Bind the hub between pumps: every instrumented call runs on
          // this thread or on shard workers joined inside pump(). The
          // fleet hands out its shard pipelines const; they are owned
          // mutable objects, so binding them through const_cast is
          // well-defined.
          fleet.bind_observability(hub);
          for (std::size_t s = 0; s < w.fleet.n_shards; ++s)
            const_cast<core::RealtimePipeline&>(fleet.shard_pipeline(s))
                .bind_observability(hub);
          for (std::size_t s = 0; s < w.fleet.n_shards; ++s)
            shard_hist.push_back(&hub.metrics().histogram(
                "fleet_shard_update_latency_seconds",
                obs::default_latency_bounds(), "shard", shard_label(s)));
          for (const char* stage : {"preprocess", "fuse", "extract", "estimate"})
            stage_hist.push_back(&hub.metrics().histogram(
                "analysis_stage_seconds", obs::default_latency_bounds(),
                "stage", stage));
          ledger.timing_publish = true;
        }
        mark_phase(slice.phase);
        current_phase = slice.phase;
      }
      const bool measured = slice.phase != kPrefill;
      const bool traced = slice.phase == kTraced;
      const double t1 = static_cast<double>(slice.index + 1) * slice_s;
      const std::uint32_t m = measured
                                  ? static_cast<std::uint32_t>(slice.index - n_prefill)
                                  : 0;
      ledger.phase = slice.phase;
      ledger.slice = m;
      ledger.publish_s = 0.0;
      SliceSpans sp;
      sp.due = slice.due_wall;
      sp.handoff = slice.handoff_wall;
      sp.start = wall_s();
      sp.tick = (slice.index + 1) % per_tick == 0;

      // LLRP decode: reassemble frames per reader, decode report bodies.
      std::size_t n_reads = 0;
      for (std::size_t r = 0; r < n_readers; ++r) {
        decoded[r].clear();
        framers[r].feed(slice.wire[r]);
        llrp::Message message;
        while (framers[r].next(message)) {
          if (message.type != llrp::MessageType::RoAccessReport) continue;
          try {
            entries = llrp::decode_tag_reports(message.body);
          } catch (const llrp::DecodeError&) {
            ++frames_rejected;
            continue;
          }
          for (const llrp::TagReportEntry& e : entries)
            decoded[r].push_back(llrp::from_wire(e, plan));
        }
        n_reads += decoded[r].size();
      }
      sp.decoded = wall_s();

      // Ingest: one non-blocking offer per read onto its reader's queue.
      for (std::size_t r = 0; r < n_readers; ++r)
        for (const core::TagRead& read : decoded[r]) fleet.offer(r, read, t1);
      sp.offered = wall_s();

      // Fleet pump (publishes merged events to the bus via the callback).
      if (traced)
        for (std::size_t s = 0; s < shard_hist.size(); ++s)
          shard_sum_before[s] = shard_hist[s]->sum();
      double stage_before = 0.0;
      for (const obs::Histogram* h : stage_hist) stage_before += h->sum();
      fleet.pump(t1);
      sp.pumped = wall_s();
      sp.publish_s = ledger.publish_s;
      if (traced) {
        std::vector<double> stripe(std::max<std::size_t>(shard_threads, 1), 0.0);
        double shard_total = 0.0;
        for (std::size_t s = 0; s < shard_hist.size(); ++s) {
          const double d = shard_hist[s]->sum() - shard_sum_before[s];
          stripe[s % stripe.size()] += d;
          shard_total += d;
        }
        sp.critical_s = shard_threads == 0
                            ? shard_total
                            : *std::max_element(stripe.begin(), stripe.end());
        double stage_after = 0.0;
        for (const obs::Histogram* h : stage_hist) stage_after += h->sum();
        sp.monitor_share =
            std::clamp(ratio(stage_after - stage_before, shard_total), 0.0, 1.0);
        for (std::size_t i = 0; i < w.subscribers.size(); ++i) {
          const std::uint64_t id = sys->clients[i]->subscription_id();
          if (id != 0)
            subscriber_queue_max =
                std::max(subscriber_queue_max, service.bus().queued(id));
        }
      }

      // Telemetry service pass, then the subscribers parse their frames.
      const double svc0 = wall_s();
      service.pump(t1);
      sp.serviced = wall_s();
      const double cpu0 = thread_cpu_s();
      sp.clients_start = wall_s();
      ledger.clients_start = sp.clients_start;
      for (std::size_t i = 0; i < sys->clients.size(); ++i) {
        if (pump_index % w.subscribers[i].step_every == 0)
          sys->clients[i]->step(t1);
      }
      sp.clients_end = wall_s();
      subscriber_cpu += thread_cpu_s() - cpu0;
      ++pump_index;
      last_t = t1;

      if (measured) {
        const double tracked = static_cast<double>(fleet.tracked_users());
        marks[slice.phase].tracked_sum += tracked;
        ++marks[slice.phase].slices;
        offered_measured += n_reads;
        duplicates_measured += slice.stats.duplicates;
        gen_lag_ms.push_back((sp.handoff - sp.due) * 1e3);
        spans[m] = sp;
        if (traced) {
          reads_traced += n_reads;
          decode_traced_s += sp.decoded - sp.start;
          offer_traced_s += sp.offered - sp.decoded;
          client_traced_s += sp.clients_end - sp.clients_start;
          const double pump_ms = (sp.pumped - sp.offered - sp.publish_s) * 1e3;
          (sp.tick ? pump_ms_tick : pump_ms_plain).push_back(pump_ms);
          service_ms.push_back((sp.serviced - svc0) * 1e3);
          const std::uint32_t root = static_cast<std::uint32_t>(trace_spans.size() + 1);
          trace_spans.push_back({"slice", m, 0, sp.start, sp.clients_end, n_reads});
          trace_spans.push_back({"llrp.decode", m, root, sp.start, sp.decoded, n_reads});
          trace_spans.push_back({"ingest.offer", m, root, sp.decoded, sp.offered, n_reads});
          trace_spans.push_back({"fleet.pump", m, root, sp.offered, sp.pumped, 0});
          trace_spans.push_back({"telemetry.publish", m, root + 3, sp.offered,
                                 sp.offered + sp.publish_s, 0});
          trace_spans.push_back({"telemetry.service", m, root, svc0, sp.serviced, 0});
          trace_spans.push_back({"telemetry.client", m, root, sp.clients_start,
                                 sp.clients_end, 0});
        }
      }

      if (slice.phase == kPrefill && slice.index + 1 == n_prefill) {
        // Prefill drained: start the open-loop schedule just ahead.
        const double origin = wall_s() + 0.05;
        ledger.schedule = DueSchedule(origin, ledger.prefill_end_s);
        deadline_measured = origin + 4.0 * opt.seconds + 40.0;
        mark_phase(kMeasured);
        current_phase = kMeasured;
        go_promise.set_value(origin);
      }
      const double now = wall_s();
      if ((slice.phase == kPrefill && now > deadline_prefill) ||
          (slice.phase != kPrefill && now > deadline_measured))
        throw std::runtime_error(
            "system far below the workload's rate: run overran its deadline");
    }
  } catch (...) {
    stop = true;
    try {
      go_promise.set_value(std::nan(""));
    } catch (const std::future_error&) {
    }
    queue.close();
    gen_thread.join();
    throw;
  }
  gen_thread.join();
  if (gen_error) std::rethrow_exception(gen_error);
  const double run_end_cpu = process_cpu_s();
  const double run_end_sub = subscriber_cpu;
  const FrontCounters front_end = front_counters(fleet, n_readers);
  const BusTotals bus_before_flush = bus_totals(service.bus());
  const telemetry::ServiceCounters service_end = service.counters();
  const std::uint64_t wire_bytes_end = server_bytes();
  const IoCounters io_end = io_counters();
  const std::size_t rss_end = resident_bytes();

  // Final flush: drain what is queued to every live subscriber.
  for (int round = 0; round < 4; ++round) {
    service.pump(last_t);
    for (auto& client : sys->clients) client->step(last_t);
  }

  // --- end-to-end metrics --------------------------------------------------
  const int e2e_phase = opt.trace ? kTraced : kMeasured;
  const double phase_end_cpu[3] = {0.0, opt.trace ? marks[kTraced].process_cpu
                                                  : run_end_cpu,
                                   run_end_cpu};
  const double phase_end_sub[3] = {0.0, opt.trace ? marks[kTraced].subscriber_cpu
                                                  : run_end_sub,
                                   run_end_sub};
  const double gen_end[3] = {0.0, opt.trace ? gen_cpu_marks[1] : gen_cpu_marks[2],
                             gen_cpu_marks[2]};
  const double gen_start[3] = {0.0, gen_cpu_marks[0], gen_cpu_marks[1]};
  const auto phase_upc = [&](int p) {
    CpuLedger cpu;
    cpu.process_s = phase_end_cpu[p] - marks[p].process_cpu;
    cpu.subscriber_s = phase_end_sub[p] - marks[p].subscriber_cpu;
    cpu.generator_s = gen_end[p] - gen_start[p];
    const double users =
        marks[p].slices > 0 ? marks[p].tracked_sum / static_cast<double>(marks[p].slices)
                            : 0.0;
    const double stream = static_cast<double>(marks[p].slices) * slice_s;
    return std::make_pair(
        users_per_core(static_cast<std::size_t>(std::llround(users)), stream, cpu),
        cpu);
  };

  std::vector<double> latency_ms;
  std::vector<std::size_t> window;        // 5 s window of each sample
  std::vector<std::size_t> phase_events;  // indices into ledger.samples
  const std::size_t per_window =
      static_cast<std::size_t>(std::llround(kTailWindowS / slice_s));
  for (std::size_t i = 0; i < ledger.samples.size(); ++i) {
    const EventSample& e = ledger.samples[i];
    const bool in_traced = e.slice >= n_untraced;
    if ((e2e_phase == kTraced) != in_traced) continue;
    latency_ms.push_back(e.latency_s * 1e3);
    window.push_back(e.slice / per_window);
    phase_events.push_back(i);
  }
  std::vector<double> sorted = latency_ms;
  const Percentile p50 = median_of(sorted);
  const Percentile p99 = windowed_tail(latency_ms, window);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.4g per %g s window, median of windows",
                p99.q * 100.0, kTailWindowS);

  const auto [upc, cpu] = phase_upc(e2e_phase);
  const std::size_t tracked_end = fleet.tracked_users();
  const FrontCounters& f0 = front_at[kMeasured];
  const double nondup = static_cast<double>(offered_measured - duplicates_measured);
  const double reads_lost = static_cast<double>(
      (front_end.shed - f0.shed) + (front_end.coalesced - f0.coalesced) +
      (front_end.quarantined - f0.quarantined));
  const double read_loss = ratio(reads_lost, nondup);
  const double published = static_cast<double>(ledger.published_measured);
  const double event_loss =
      ratio(published - static_cast<double>(ledger.primary_measured), published);
  const double accuracy =
      ledger.accuracy_n > 0 ? ledger.accuracy_sum / static_cast<double>(ledger.accuracy_n)
                            : 0.0;
  std::vector<double> setup_sorted = setup_samples;
  const Percentile setup = median_of(setup_sorted);

  result.end_to_end = {
      {"event_latency_p50_ms", p50.value, "ms", p50.n, "p50"},
      {"event_latency_p99_ms", p99.value, "ms", p99.n, note},
      {"users_per_core", upc, "users", marks[e2e_phase].slices,
       "system cpu " + std::to_string(cpu.system_s()) + " s"},
      {"rss_bytes_per_user",
       ratio(static_cast<double>(rss_end) - static_cast<double>(rss_before),
             static_cast<double>(tracked_end)),
       "B", tracked_end, ""},
      {"read_delivery_ratio", 1.0 - read_loss, "ratio",
       static_cast<std::size_t>(nondup),
       "read_loss_ratio " + std::to_string(read_loss)},
      {"event_delivery_ratio", 1.0 - event_loss, "ratio",
       static_cast<std::size_t>(published),
       "event_loss_ratio " + std::to_string(event_loss)},
      {"rate_accuracy", accuracy, "ratio", ledger.accuracy_n, "Eq. 8 mean"},
      {"setup_s", setup.value, "s", setup.n,
       "median of constructions without journal; the run's own system took " +
           std::to_string(run_setup_s) + " s" +
           (w.journal ? " with its journal" : "")},
  };
  result.attempted = ledger.published_measured;
  result.failed = ledger.published_measured > ledger.primary_measured
                      ? ledger.published_measured - ledger.primary_measured
                      : 0;
  result.event_log_hash = ledger.hash;

  // --- correctness ---------------------------------------------------------
  auto fail = [&result](const std::string& what) { result.failures.push_back(what); };
  if (!(accuracy >= w.rate_accuracy_floor))
    fail("rate_accuracy " + std::to_string(accuracy) + " below floor " +
         std::to_string(w.rate_accuracy_floor));
  for (std::size_t r = 0; r < n_readers; ++r) {
    const core::IngestQueueCounters q = fleet.reader_queue_counters(r);
    if (q.enqueued != q.drained + q.shed_oldest + q.coalesced)
      fail("queue law broken on reader " + std::to_string(r));
  }
  const fleet::FleetCounters& fc = fleet.counters();
  if (fc.admitted != fc.routed + fc.handoff_suppressed)
    fail("fleet law broken: admitted != routed + handoff_suppressed");
  service.bus().for_each_subscription(
      [&](std::uint64_t id, const telemetry::FilterSpec&,
          telemetry::SubscriberState, const telemetry::SubscriptionCounters& c,
          std::size_t queued) {
        if (c.published != c.delivered + c.dropped + c.coalesced + queued)
          fail("bus law broken on subscription " + std::to_string(id));
      });
  const double end_s = last_t;
  const double measured_from = ledger.prefill_end_s;
  std::size_t untracked = 0, unheard = 0;
  std::string lost_example;
  for (const UserTruth& u : generator.users()) {
    const bool reading_at_end = generator.reading_at(u.id, end_s - 1.0) &&
                                generator.reading_at(u.id, end_s - slice_s);
    const bool tracked = fleet.shard_pipeline(fleet.shard_of(u.id)).tracks(u.id);
    // Read and breathing throughout the measured phase => some event
    // reached the primary subscriber (a user in apnea gets one alert,
    // possibly before the phase began).
    const bool steady = std::isfinite(
        generator.truth_bpm(u.id, measured_from - 6.0, end_s));
    const bool heard = ledger.user_heard[u.id - 1] != 0;
    if ((reading_at_end && !tracked) || (steady && !heard)) {
      untracked += reading_at_end && !tracked;
      unheard += steady && !heard;
      if (lost_example.empty())
        lost_example = " (e.g. user " + std::to_string(u.id) +
                       (tracked ? " tracked" : " untracked") +
                       (heard ? ", heard)" : ", unheard)");
    }
  }
  if (untracked + unheard > 0)
    fail("admitted users lost: " + std::to_string(untracked) +
         " read at the end but untracked, " + std::to_string(unheard) +
         " read throughout but no event delivered" + lost_example);
  if (ledger.primary_measured == 0) fail("no event reached the primary subscriber");

  // --- per-layer metrics (trace runs) ---------------------------------------
  if (opt.trace) {
    const obs::MetricsSnapshot snap = hub.metrics().snapshot();
    const FrontCounters& ft = front_at[kTraced];
    const double traced_s = static_cast<double>(marks[kTraced].slices) * slice_s;
    const double traced_routed = static_cast<double>(front_end.routed - ft.routed);
    std::vector<double> tmp;
    const auto ms_tail = [&tmp](const std::vector<double>& v) {
      tmp = v;
      return tail_of(tmp);
    };
    const auto ms_median = [&tmp](const std::vector<double>& v) {
      tmp = v;
      return median_of(tmp);
    };
    auto add = [&result](const std::string& n, double v, const std::string& u,
                         std::size_t samples = 1, const std::string& note = "") {
      result.per_layer.push_back(Metric{n, v, u, samples, note});
    };
    const auto q_note = [](const Percentile& p) {
      char b[32];
      std::snprintf(b, sizeof(b), "p%.4g", p.q * 100.0);
      return std::string(b);
    };

    add("llrp.decode_ns_per_read", ratio(decode_traced_s * 1e9, double(reads_traced)),
        "ns", reads_traced);
    add("llrp.frames_rejected", double(frames_rejected), "count");
    add("ingest.offer_ns_per_read", ratio(offer_traced_s * 1e9, double(reads_traced)),
        "ns", reads_traced);
    add("ingest.queue_depth_max", double(front_end.peak_depth), "count");
    add("ingest.shed_ratio",
        ratio(double((front_end.shed - ft.shed) + (front_end.coalesced - ft.coalesced)),
              double(reads_traced)),
        "ratio", reads_traced);
    add("ingest.quarantine_ratio",
        ratio(double(front_end.quarantined - ft.quarantined),
              double(front_end.drained - ft.drained)),
        "ratio", front_end.drained - ft.drained);
    const Percentile pump50 = ms_median(pump_ms_plain);
    add("fleet.pump_ms_p50", pump50.value, "ms", pump50.n, "non-tick pumps");
    const Percentile tick99 = ms_tail(pump_ms_tick);
    add("fleet.tick_pump_ms_p99", tick99.value, "ms", tick99.n, q_note(tick99));
    const obs::HistogramSample shard_merged =
        merge_histograms(snap, "fleet_shard_update_latency_seconds");
    add("fleet.shard_update_ms_p99", histogram_quantile(shard_merged, 0.99) * 1e3,
        "ms", shard_merged.count, "bucket-interpolated");
    double shard_max = 0.0, shard_sum = 0.0;
    for (std::size_t s = 0; s < w.fleet.n_shards; ++s) {
      const obs::HistogramSample* h =
          find_histogram(snap, "fleet_shard_update_latency_seconds", shard_label(s));
      const double v = h != nullptr ? h->sum : 0.0;
      shard_max = std::max(shard_max, v);
      shard_sum += v;
    }
    add("fleet.shard_skew",
        ratio(shard_max, shard_sum / static_cast<double>(w.fleet.n_shards)), "ratio",
        w.fleet.n_shards);
    add("fleet.handoff_suppressed_ratio",
        ratio(double(front_end.suppressed - ft.suppressed),
              double(front_end.admitted - ft.admitted)),
        "ratio", front_end.admitted - ft.admitted);
    add("fleet.users_rebalanced", double(fc.users_rebalanced), "count");
    add("fleet.journal_reads_replayed", double(fc.journal_reads_replayed), "count");
    const obs::HistogramSample update = merge_histograms(snap, "pipeline_update_seconds");
    add("pipeline.update_ms_p99", histogram_quantile(update, 0.99) * 1e3, "ms",
        update.count, "bucket-interpolated");
    std::size_t footprint = 0, evictions = 0, analyses = 0, skipped = 0;
    for (std::size_t s = 0; s < w.fleet.n_shards; ++s) {
      const core::RealtimePipeline& p = fleet.shard_pipeline(s);
      footprint += p.footprint_bytes();
      evictions += p.users_evicted();
      analyses += p.analyses_run();
      skipped += p.analyses_skipped();
    }
    for (std::size_t r = 0; r < n_readers; ++r)
      evictions += fleet.reader_validation(r).users_evicted;
    add("pipeline.footprint_bytes_per_user",
        ratio(double(footprint), double(tracked_end)), "B", tracked_end);
    add("pipeline.skip_ratio", ratio(double(skipped), double(analyses + skipped)),
        "ratio", analyses + skipped);
    add("pipeline.evictions", double(evictions), "count");
    for (const char* stage : {"preprocess", "fuse", "extract", "estimate"}) {
      const obs::HistogramSample* h = find_histogram(snap, "analysis_stage_seconds", stage);
      const double us = h != nullptr ? ratio(h->sum * 1e6, double(h->count)) : 0.0;
      add(std::string("monitor.") + stage + "_us_per_analysis", us, "us",
          h != nullptr ? h->count : 0);
    }
    add("journal.bytes_per_read",
        ratio(double(io_end.write_bytes - io_at[kTraced].write_bytes), traced_routed),
        "B", static_cast<std::size_t>(traced_routed));
    add("journal.commits_per_s",
        ratio(double(io_end.write_calls - io_at[kTraced].write_calls), traced_s), "1/s");
    add("telemetry.publish_ns_per_event",
        ratio([&] {
          double s = 0.0;
          for (std::size_t i = n_untraced; i < n_measured; ++i) s += spans[i].publish_s;
          return s;
        }() * 1e9, double(ledger.published_traced)),
        "ns", ledger.published_traced);
    const std::uint64_t parsed_traced =
        service_end.events_sent - service_at[kTraced].events_sent;
    add("telemetry.client_ns_per_event", ratio(client_traced_s * 1e9, double(parsed_traced)),
        "ns", parsed_traced);
    const Percentile svc99 = ms_tail(service_ms);
    add("telemetry.service_pump_ms_p99", svc99.value, "ms", svc99.n, q_note(svc99));
    add("telemetry.wire_bytes_per_event",
        ratio(double(wire_bytes_end - wire_bytes_at[kTraced]), double(parsed_traced)),
        "B", parsed_traced);
    const BusTotals& bt = bus_at[kTraced];
    const double bus_pub = double(bus_before_flush.published - bt.published);
    add("telemetry.drop_ratio", ratio(double(bus_before_flush.dropped - bt.dropped), bus_pub),
        "ratio", static_cast<std::size_t>(bus_pub));
    add("telemetry.coalesce_ratio",
        ratio(double(bus_before_flush.coalesced - bt.coalesced), bus_pub), "ratio",
        static_cast<std::size_t>(bus_pub));
    add("telemetry.queue_depth_max", double(subscriber_queue_max), "count");
    const Percentile lag99 = ms_tail(gen_lag_ms);
    add("gen.lag_p99_ms", lag99.value, "ms", lag99.n, q_note(lag99));
    const double gen_cpu = gen_cpu_marks[2] - gen_cpu_marks[0];
    add("gen.cpu_share", ratio(gen_cpu, run_end_cpu - marks[kMeasured].process_cpu),
        "ratio");

    // Attribution: each delivered event's latency split along the
    // blocking steps of the slice that delivered it.
    static const char* kRows[] = {"gen",      "wait",    "llrp",    "ingest",
                                  "fleet",    "pipeline", "monitor", "telemetry.publish",
                                  "telemetry.service", "telemetry.client"};
    constexpr std::size_t kN = sizeof(kRows) / sizeof(kRows[0]);
    const auto rows_of = [&](const EventSample& e, double out[kN]) {
      const SliceSpans& s = spans[e.slice];
      const double pump = s.pumped - s.offered;
      const double shard = std::min(s.critical_s, std::max(0.0, pump - s.publish_s));
      out[0] = s.handoff - s.due;
      out[1] = s.start - s.handoff;
      out[2] = s.decoded - s.start;
      out[3] = s.offered - s.decoded;
      out[4] = pump - s.publish_s - shard;
      out[5] = shard * (1.0 - s.monitor_share);
      out[6] = shard * s.monitor_share;
      out[7] = s.publish_s;
      out[8] = s.serviced - s.pumped;
      out[9] = e.client_s;
    };
    std::vector<std::size_t> order = phase_events;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ledger.samples[a].latency_s < ledger.samples[b].latency_s;
    });
    double residual[2] = {0.0, 0.0};
    double rows[2][kN] = {};
    const Percentile at[2] = {p50, p99};
    for (int k = 0; k < 2 && !order.empty(); ++k) {
      // Centre the band on the event whose latency is the reported value.
      const std::size_t band = std::max<std::size_t>(1, order.size() / 200);
      const std::size_t centre = std::min<std::size_t>(
          order.size() - 1,
          static_cast<std::size_t>(
              std::lower_bound(order.begin(), order.end(), at[k].value * 1e-3,
                               [&](std::size_t a, double v) {
                                 return ledger.samples[a].latency_s < v;
                               }) -
              order.begin()));
      const std::size_t lo = centre > band ? centre - band : 0;
      const std::size_t hi = std::min(order.size() - 1, centre + band);
      double sum[kN] = {};
      for (std::size_t i = lo; i <= hi; ++i) {
        double r[kN];
        rows_of(ledger.samples[order[i]], r);
        for (std::size_t j = 0; j < kN; ++j) sum[j] += r[j];
      }
      double attributed = 0.0;
      for (std::size_t j = 0; j < kN; ++j) {
        rows[k][j] = sum[j] / static_cast<double>(hi - lo + 1) * 1e3;
        attributed += rows[k][j];
      }
      residual[k] = at[k].value - attributed;
    }
    add("residual.p50_ms", residual[0], "ms", p50.n);
    add("residual.p99_ms", residual[1], "ms", p99.n, note);
    const double upc_untraced = phase_upc(kMeasured).first;
    add("trace.overhead_pct", upc > 0.0 ? (upc_untraced / upc - 1.0) * 100.0 : 0.0, "%",
        1, "users_per_core untraced " + std::to_string(upc_untraced) + " vs traced " +
               std::to_string(upc));

    char line[160];
    result.table.push_back(std::string("tail = ") + note);
    std::snprintf(line, sizeof(line), "%-20s %12s %12s", "layer", "p50 ms",
                  "tail ms");
    result.table.push_back(line);
    for (std::size_t j = 0; j < kN; ++j) {
      std::snprintf(line, sizeof(line), "%-20s %12.4f %12.4f", kRows[j], rows[0][j],
                    rows[1][j]);
      result.table.push_back(line);
    }
    std::snprintf(line, sizeof(line), "%-20s %12.4f %12.4f", "residual", residual[0],
                  residual[1]);
    result.table.push_back(line);
    std::snprintf(line, sizeof(line), "%-20s %12.4f %12.4f", "= end-to-end", p50.value,
                  p99.value);
    result.table.push_back(line);

    // Spans, held in memory during the run, written once at exit.
    const std::string path =
        opt.work_dir + "/spans-" + w.name + "-" + std::to_string(::getpid()) + ".jsonl";
    std::ofstream out(path);
    for (std::size_t i = 0; i < trace_spans.size(); ++i) {
      const Span& s = trace_spans[i];
      out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"slice\":"
          << s.slice << ",\"name\":\"" << s.name << "\",\"start_ms\":"
          << (s.start - run_start) * 1e3 << ",\"end_ms\":" << (s.end - run_start) * 1e3
          << ",\"count\":" << s.count << "}\n";
    }
  }
  sys.reset();
  return result;
}

}  // namespace perfbench
