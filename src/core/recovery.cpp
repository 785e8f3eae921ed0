#include "core/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/observability.hpp"

namespace tagbreathe::core {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// DurabilityConfig

void DurabilityConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("DurabilityConfig: " + what);
  };
  if (directory.empty() &&
      (journal.directory.empty() || snapshot.directory.empty()))
    bad("directory must be set (or both sub-config directories)");
  if (!(snapshot_period_s > 0.0) || !std::isfinite(snapshot_period_s))
    bad("snapshot_period_s must be positive and finite");
  resolved_journal().validate();
  resolved_snapshot().validate();
}

JournalConfig DurabilityConfig::resolved_journal() const {
  JournalConfig cfg = journal;
  if (cfg.directory.empty())
    cfg.directory = (fs::path(directory) / "journal").string();
  return cfg;
}

SnapshotConfig DurabilityConfig::resolved_snapshot() const {
  SnapshotConfig cfg = snapshot;
  if (cfg.directory.empty())
    cfg.directory = (fs::path(directory) / "snapshots").string();
  return cfg;
}

// ---------------------------------------------------------------------------
// DurableMonitor

DurableMonitor::DurableMonitor(DurabilityConfig durability, IngestConfig ingest,
                               PipelineConfig pipeline,
                               RealtimePipeline::EventCallback callback,
                               const DurabilityHooks* hooks)
    : config_(std::move(durability)),
      pipeline_(pipeline, std::move(callback)),
      frontend_(std::move(ingest), pipeline_) {
  config_.validate();

  const SnapshotConfig snapshot_cfg = config_.resolved_snapshot();
  SnapshotLoadReport snap = load_newest_snapshot(snapshot_cfg.directory);
  recovery_counters_.merge(snap.counters);
  recovery_.snapshots_rejected = std::move(snap.rejected);
  std::uint64_t after_seq = 0;
  if (snap.data) {
    recovery_.snapshot_loaded = true;
    recovery_.snapshot_file = std::move(snap.loaded_file);
    recovery_.snapshot_seq = snap.data->last_journal_seq;
    after_seq = snap.data->last_journal_seq;
    frontend_.validator().import_state(snap.data->validator);
    pipeline_.import_state(std::move(snap.data->pipeline));
  }

  replay_journal(after_seq, hooks);
  snapshot_ = std::make_unique<SnapshotWriter>(snapshot_cfg, hooks);

  // From here every admitted read is journaled before it reaches the
  // pipeline (write-ahead with respect to analysis state).
  frontend_.set_admit_tap(
      [this](const TagRead& read) { journal_->append(read); });

  recovery_.resume_time_s = pipeline_.now_s();
  next_snapshot_s_ = pipeline_.now_s() + config_.snapshot_period_s;
}

void DurableMonitor::replay_journal(std::uint64_t after_seq,
                                    const DurabilityHooks* hooks) {
  const JournalConfig journal_cfg = config_.resolved_journal();
  recovering_ = true;
  const JournalScanResult scan = scan_journal(
      journal_cfg.directory, after_seq, [this](const JournalRecord& record) {
        // Replay goes through the normal admission path: a record that
        // would be quarantined live is quarantined on replay too.
        TagRead read = record.read;
        if (frontend_.validator().admit(read).admitted) {
          ++recovery_.replayed_reads;
          pipeline_.push(read);
        } else {
          ++recovery_.replay_quarantined;
        }
        for (const std::uint64_t user :
             frontend_.validator().take_evicted_users())
          pipeline_.forget_user(user);
      });
  recovering_ = false;

  recovery_counters_.merge(scan.counters);
  recovery_counters_.replay_quarantined += recovery_.replay_quarantined;
  recovery_.corrupt_records_skipped = scan.counters.journal_records_corrupt;
  recovery_.truncated_tails = scan.counters.journal_truncated_tails;

  // Resume numbering after everything intact on disk — including
  // records at or below the snapshot frontier, so a stale snapshot can
  // never cause sequence reuse.
  journal_ = std::make_unique<JournalWriter>(
      journal_cfg, std::max(scan.max_seq, after_seq) + 1, hooks);
}

EnqueueResult DurableMonitor::offer(const TagRead& read, double now_s) {
  return frontend_.offer(read, now_s);
}

std::size_t DurableMonitor::pump(double now_s) {
  const std::size_t admitted = frontend_.pump(now_s);
  journal_->maybe_commit(now_s);
  if (now_s >= next_snapshot_s_) {
    checkpoint();
    next_snapshot_s_ = now_s + config_.snapshot_period_s;
  }
  return admitted;
}

void DurableMonitor::flush() {
  journal_->commit();
}

void DurableMonitor::checkpoint() {
  // Commit first so the snapshot's journal frontier covers every read
  // already folded into the pipeline state it serializes.
  journal_->commit();
  SnapshotData data;
  data.last_journal_seq = journal_->last_committed_seq();
  data.now_s = pipeline_.now_s();
  data.pipeline = pipeline_.export_state();
  data.validator = frontend_.validator().export_state();
  snapshot_->write(data);
  journal_->prune(data.last_journal_seq);
}

DurabilityCounters DurableMonitor::counters() const {
  DurabilityCounters merged = recovery_counters_;
  merged.merge(journal_->counters());
  merged.merge(snapshot_->counters());
  return merged;
}

void DurableMonitor::bind_observability(obs::Observability& hub) {
  pipeline_.bind_observability(hub);
  frontend_.bind_observability(hub);
  collector_.bind(hub.metrics(), [this](obs::CounterSink& sink) {
    const DurabilityCounters c = counters();
    sink.emit("durability_journal_records_appended_total",
              c.journal_records_appended);
    sink.emit("durability_journal_commits_total", c.journal_commits);
    sink.emit("durability_journal_bytes_written_total",
              c.journal_bytes_written);
    sink.emit("durability_journal_segments_created_total",
              c.journal_segments_created);
    sink.emit("durability_journal_segments_pruned_total",
              c.journal_segments_pruned);
    sink.emit("durability_replay_records_total", c.replay_records);
    sink.emit("durability_replay_quarantined_total", c.replay_quarantined);
    sink.emit("durability_journal_records_corrupt_total",
              c.journal_records_corrupt);
    sink.emit("durability_journal_truncated_tails_total",
              c.journal_truncated_tails);
    sink.emit("durability_journal_segments_scanned_total",
              c.journal_segments_scanned);
    sink.emit("durability_journal_segments_rejected_total",
              c.journal_segments_rejected);
    sink.emit("durability_snapshots_written_total", c.snapshots_written);
    sink.emit("durability_snapshot_bytes_written_total",
              c.snapshot_bytes_written);
    sink.emit("durability_snapshots_pruned_total", c.snapshots_pruned);
    sink.emit("durability_snapshots_loaded_total", c.snapshots_loaded);
    sink.emit("durability_snapshots_rejected_total", c.snapshots_rejected);
  });
}

// ---------------------------------------------------------------------------
// Crash-injection harness

namespace {

constexpr std::size_t kMaxSoakViolations = 50;

void add_violation(std::vector<std::string>& violations, std::string line) {
  if (violations.size() < kMaxSoakViolations) {
    violations.push_back(std::move(line));
  } else if (violations.size() == kMaxSoakViolations) {
    violations.push_back("... further violations suppressed");
  }
}

/// One chaos-mangled read plus the wall moment it is handed to the
/// front-end. Precomputed once so the golden run and both lives of the
/// crashed run see the byte-identical delivery schedule.
struct DeliveryItem {
  double offer_s = 0.0;
  TagRead read;
};

std::vector<DeliveryItem> make_delivery_schedule(const SoakConfig& soak) {
  const ReadStream clean = make_soak_population(soak);
  ChaosInjector injector(soak.chaos);
  std::vector<DeliveryItem> items;
  items.reserve(clean.size());
  std::vector<TagRead> out;
  for (const TagRead& read : clean) {
    out.clear();
    injector.feed(read, out);
    for (const TagRead& r : out) items.push_back(DeliveryItem{read.time_s, r});
  }
  out.clear();
  injector.flush(out);
  for (const TagRead& r : out)
    items.push_back(DeliveryItem{soak.duration_s, r});
  return items;
}

/// (roster, ingest, pipeline) defaults applied the same way run_soak
/// applies them, so crash-soak behaviour matches the plain soak.
struct SoakSetup {
  std::vector<std::uint64_t> roster;
  IngestConfig ingest;
  PipelineConfig pipeline;
};

SoakSetup make_soak_setup(const SoakConfig& config) {
  SoakSetup setup;
  setup.roster.reserve(config.n_users);
  for (std::size_t u = 0; u < config.n_users; ++u)
    setup.roster.push_back(static_cast<std::uint64_t>(u + 1));
  setup.ingest = config.ingest;
  if (setup.ingest.monitored_users.empty())
    setup.ingest.monitored_users = setup.roster;
  setup.pipeline = config.pipeline;
  if (setup.pipeline.max_users == 0)
    setup.pipeline.max_users = setup.ingest.max_users;
  return setup;
}

using TimedLog = std::vector<std::pair<double, std::string>>;

std::vector<std::string> log_tail(const TimedLog& events, double after_s) {
  std::vector<std::string> out;
  for (const auto& [time_s, line] : events)
    if (time_s > after_s) out.push_back(line);
  return out;
}

}  // namespace

void CrashSoakConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("CrashSoakConfig: " + what);
  };
  soak.validate();
  durability.validate();
  if (static_cast<std::size_t>(point) >= kCrashPointCount)
    bad("point out of range");
  if (!(crash_after_s > 0.0) || !std::isfinite(crash_after_s))
    bad("crash_after_s must be positive and finite");
  if (crash_after_s >= soak.duration_s)
    bad("crash_after_s must fall inside the soak duration");
  if (!(converge_margin_s >= 0.0) || !std::isfinite(converge_margin_s))
    bad("converge_margin_s must be non-negative and finite");
}

CrashSoakReport run_crash_soak(const CrashSoakConfig& config) {
  config.validate();
  CrashSoakReport report;

  const std::vector<DeliveryItem> items = make_delivery_schedule(config.soak);
  const SoakSetup setup = make_soak_setup(config.soak);
  const double pump_period = config.soak.pump_period_s;
  const double duration = config.soak.duration_s;

  // --- golden run: no durability layer, no interruption ------------------
  TimedLog golden;
  {
    RealtimePipeline pipeline(setup.pipeline, [&](const PipelineEvent& e) {
      golden.emplace_back(e.time_s, format_soak_event(e));
    });
    IngestFrontEnd frontend(setup.ingest, pipeline);
    double next_pump = pump_period;
    for (const DeliveryItem& item : items) {
      while (item.offer_s >= next_pump) {
        frontend.pump(next_pump);
        next_pump += pump_period;
      }
      frontend.offer(item.read, item.offer_s);
    }
    frontend.pump(duration);
  }
  report.golden_events = golden.size();

  // --- crashed run: kill point armed, recover, finish the stream ---------
  TimedLog recovered;
  const auto callback = [&](const PipelineEvent& e) {
    recovered.emplace_back(e.time_s, format_soak_event(e));
  };

  double stream_now_s = 0.0;
  DurabilityHooks hooks;
  hooks.at_point = [&](CrashPoint point) {
    if (report.crashed || point != config.point) return;
    if (stream_now_s < config.crash_after_s) return;
    report.crashed = true;
    report.crash_time_s = stream_now_s;
    throw SimulatedCrash(std::string("injected crash: ") +
                         crash_point_name(point));
  };

  std::size_t idx = 0;
  double next_pump = pump_period;
  const auto drive = [&](DurableMonitor& monitor) {
    while (idx < items.size()) {
      const DeliveryItem& item = items[idx];
      while (item.offer_s >= next_pump) {
        stream_now_s = next_pump;
        monitor.pump(next_pump);
        next_pump += pump_period;
      }
      stream_now_s = item.offer_s;
      monitor.offer(item.read, item.offer_s);
      ++idx;
    }
    stream_now_s = duration;
    monitor.pump(duration);
    monitor.flush();
  };

  auto monitor = std::make_unique<DurableMonitor>(
      config.durability, setup.ingest, setup.pipeline, callback, &hooks);
  try {
    drive(*monitor);
  } catch (const SimulatedCrash&) {
    // First life is over. Reads still queued in its front-end are lost,
    // as they would be in a real crash; the wedged writers' destructors
    // leave the torn files exactly as the "crash" left them.
    report.counters.merge(monitor->counters());
    monitor.reset();
    try {
      monitor = std::make_unique<DurableMonitor>(
          config.durability, setup.ingest, setup.pipeline, callback, nullptr);
      report.recovered = true;
      report.recovery = monitor->recovery();
    } catch (const std::exception& e) {
      monitor.reset();
      add_violation(report.violations,
                    std::string("recovery failed to construct: ") + e.what());
    }
    if (monitor) {
      try {
        drive(*monitor);
      } catch (const std::exception& e) {
        add_violation(report.violations,
                      std::string("post-recovery drive failed: ") + e.what());
      }
    }
  }
  if (monitor) report.counters.merge(monitor->counters());
  report.recovered_run_events = recovered.size();

  if (!report.crashed) {
    add_violation(report.violations,
                  std::string("kill point ") + crash_point_name(config.point) +
                      " never fired before the soak ended");
    return report;
  }

  // --- convergence: once the sliding window has refilled past the
  // crash, the recovered event stream must match the golden one -----------
  const double threshold = report.crash_time_s + config.soak.pipeline.window_s +
                           config.converge_margin_s;
  const std::vector<std::string> golden_tail = log_tail(golden, threshold);
  const std::vector<std::string> recovered_tail = log_tail(recovered, threshold);
  report.compared_events = golden_tail.size();
  if (golden_tail.empty())
    add_violation(report.violations,
                  "convergence window is empty — crash_after_s too close to "
                  "the soak duration");
  if (golden_tail.size() != recovered_tail.size())
    add_violation(report.violations,
                  "event count diverged after t=" + std::to_string(threshold) +
                      ": golden " + std::to_string(golden_tail.size()) +
                      " vs recovered " + std::to_string(recovered_tail.size()));
  const std::size_t common =
      std::min(golden_tail.size(), recovered_tail.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (golden_tail[i] != recovered_tail[i]) {
      add_violation(report.violations,
                    "event diverged: golden '" + golden_tail[i] +
                        "' vs recovered '" + recovered_tail[i] + "'");
      break;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Durable soak (run_soak's scenario through a DurableMonitor)

SoakReport run_durable_soak(const SoakConfig& config,
                            const DurabilityConfig& durability) {
  config.validate();
  durability.validate();
  SoakReport report;

  const SoakSetup setup = make_soak_setup(config);
  const std::size_t user_cap =
      setup.pipeline.max_users > 0 ? setup.pipeline.max_users : config.n_users;
  SoakInvariantSink sink(setup.roster, user_cap, setup.ingest.max_users,
                         report);

  DurableMonitor monitor(
      durability, setup.ingest, setup.pipeline,
      [&](const PipelineEvent& event) { sink.on_event(event); });
  if (config.observability != nullptr)
    monitor.bind_observability(*config.observability);
  ChaosInjector injector(config.chaos);
  const ReadStream clean = make_soak_population(config);

  std::vector<TagRead> delivered;
  double next_pump = config.pump_period_s;
  const auto pump_and_check = [&](double now_s) {
    monitor.pump(now_s);
    sink.after_pump(monitor.pipeline(),
                    monitor.frontend().validator().tracked_users());
  };

  for (const TagRead& read : clean) {
    delivered.clear();
    injector.feed(read, delivered);
    for (const TagRead& r : delivered) monitor.offer(r, read.time_s);
    while (read.time_s >= next_pump) {
      pump_and_check(next_pump);
      next_pump += config.pump_period_s;
    }
  }
  delivered.clear();
  injector.flush(delivered);
  for (const TagRead& r : delivered) monitor.offer(r, config.duration_s);
  pump_and_check(config.duration_s);
  monitor.flush();

  report.chaos = injector.stats();
  report.queue = monitor.frontend().queue_counters();
  report.validation = monitor.frontend().validation();
  report.durability = monitor.counters();

  append_queue_invariant_violations(report.queue,
                                    monitor.frontend().queue().capacity(),
                                    report.violations);
  // Every admitted read must have hit the journal (write-ahead). Only
  // checkable on a fresh directory: replayed reads count as admitted
  // but were journaled in a previous life.
  if (monitor.recovery().replayed_reads == 0 &&
      monitor.recovery().replay_quarantined == 0 &&
      report.durability.journal_records_appended !=
          report.validation.admitted)
    sink.violation("journal missed admitted reads: " +
                   std::to_string(report.durability.journal_records_appended) +
                   " journaled vs " +
                   std::to_string(report.validation.admitted) + " admitted");

  return report;
}

}  // namespace tagbreathe::core
