// Crash recovery: glues the journal (core/journal) and snapshots
// (core/snapshot) to the live ingest + analysis path.
//
// DurableMonitor owns the full durable pipeline. Construction IS
// recovery: load the newest valid snapshot, restore pipeline +
// validator state from it, replay the journal tail (records with
// sequence numbers beyond the snapshot) through the normal
// admission/ingest path, then resume journaling new reads at the next
// sequence number. A cold start (empty directory) degenerates to an
// ordinary monitor. Recovery never throws on corrupt *content* —
// torn tails, bit flips and bad snapshots are skipped and counted —
// only on unusable configuration or I/O errors (unwritable dir).
//
// Semantics are at-least-once: the snapshot marks a prefix of the
// journal as applied, everything after it is replayed, and reads that
// were admitted but never group-committed are lost with the crash
// (bounded by commit_batch / commit_interval_s). Replay re-emits
// pipeline events for the replayed window; downstream consumers see
// the same events twice across a crash, never a gap in state.
//
// run_crash_soak() is the deterministic crash-injection harness: one
// golden (uninterrupted) run and one run killed at a seeded
// CrashPoint mid-I/O, recovered, and driven to completion on the same
// read stream. The two event streams must converge once the sliding
// analysis window refills past the crash.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/ingest.hpp"
#include "core/journal.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/snapshot.hpp"

namespace tagbreathe::core {

struct DurabilityConfig {
  /// Root directory; the journal lives in `<directory>/journal`, the
  /// snapshots in `<directory>/snapshots`, unless the sub-configs name
  /// their own directories explicitly.
  std::string directory;
  JournalConfig journal{};
  SnapshotConfig snapshot{};
  /// Stream-time cadence between snapshots (each snapshot also prunes
  /// journal segments the snapshot has made redundant).
  double snapshot_period_s = 30.0;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;

  /// Sub-configs with directory defaults applied.
  JournalConfig resolved_journal() const;
  SnapshotConfig resolved_snapshot() const;
};

/// What recovery found and did, for logs and assertions.
struct RecoveryReport {
  bool snapshot_loaded = false;
  std::string snapshot_file;        // empty on cold start
  std::uint64_t snapshot_seq = 0;   // journal prefix the snapshot covers
  /// "file: reason" for newer snapshots rejected before the loaded one.
  std::vector<std::string> snapshots_rejected;
  std::uint64_t replayed_reads = 0;       // journal records re-admitted
  std::uint64_t replay_quarantined = 0;   // replayed but rejected by admission
  std::uint64_t corrupt_records_skipped = 0;
  std::uint64_t truncated_tails = 0;
  double resume_time_s = 0.0;  // pipeline stream clock after recovery
};

/// A RealtimePipeline + IngestFrontEnd wrapped in the durability
/// layer. Same offer/pump surface as IngestFrontEnd, plus journaling
/// of every admitted read and periodic snapshots.
class DurableMonitor {
 public:
  /// Performs recovery (see file comment). `hooks` threads the
  /// crash-injection kill points into the journal and snapshot
  /// writers; pass nullptr outside the harness. The hooks object must
  /// outlive the monitor.
  DurableMonitor(DurabilityConfig durability, IngestConfig ingest,
                 PipelineConfig pipeline,
                 RealtimePipeline::EventCallback callback,
                 const DurabilityHooks* hooks = nullptr);

  DurableMonitor(const DurableMonitor&) = delete;
  DurableMonitor& operator=(const DurableMonitor&) = delete;

  /// Producer side: thread-safe, never blocks (same as
  /// IngestFrontEnd::offer).
  EnqueueResult offer(const TagRead& read, double now_s);

  /// Analysis tick: drains the queue, journals + admits reads, runs
  /// the pipeline, group-commits on interval and snapshots on cadence.
  /// Returns the number of reads admitted.
  std::size_t pump(double now_s);

  /// Commits any buffered journal tail (graceful-shutdown aid; the
  /// destructor also does this best-effort).
  void flush();

  /// Commit + snapshot + prune right now, off-cadence.
  void checkpoint();

  /// True only while the constructor is replaying the journal —
  /// event callbacks can use it to tag re-emitted events.
  bool recovering() const noexcept { return recovering_; }

  const RecoveryReport& recovery() const noexcept { return recovery_; }
  RealtimePipeline& pipeline() noexcept { return pipeline_; }
  const RealtimePipeline& pipeline() const noexcept { return pipeline_; }
  IngestFrontEnd& frontend() noexcept { return frontend_; }
  const IngestFrontEnd& frontend() const noexcept { return frontend_; }

  /// Journal + snapshot + recovery counters, merged.
  DurabilityCounters counters() const;

  /// Exports counters() as durability_* series at scrape time and
  /// forwards the bind to the wrapped pipeline and front-end.
  void bind_observability(obs::Observability& hub);

 private:
  void replay_journal(std::uint64_t after_seq, const DurabilityHooks* hooks);

  DurabilityConfig config_;
  RealtimePipeline pipeline_;
  IngestFrontEnd frontend_;
  std::unique_ptr<JournalWriter> journal_;
  std::unique_ptr<SnapshotWriter> snapshot_;
  RecoveryReport recovery_;
  DurabilityCounters recovery_counters_;
  double next_snapshot_s_;
  bool recovering_ = false;

  obs::CounterCollector collector_;  // last: retires before fields go
};

// ---------------------------------------------------------------------------
// Crash-injection harness

struct CrashSoakConfig {
  /// Population + drive parameters. chaos defaults to all-off: the
  /// crash harness compares a golden and a recovered run, and a clean
  /// feed keeps the comparison exact (chaos is still applied
  /// deterministically to both runs when enabled).
  SoakConfig soak{};
  DurabilityConfig durability{};
  /// Which seeded kill point to arm, and the earliest stream time at
  /// which it may fire.
  CrashPoint point = CrashPoint::MidJournalAppend;
  double crash_after_s = 60.0;
  /// Convergence slack past the analysis-window refill: recovered
  /// events are compared to golden events from
  /// crash time + window_s + converge_margin_s onward.
  double converge_margin_s = 15.0;

  void validate() const;
};

struct CrashSoakReport {
  bool crashed = false;    // the armed kill point actually fired
  bool recovered = false;  // the post-crash monitor constructed cleanly
  double crash_time_s = 0.0;
  RecoveryReport recovery;
  std::size_t golden_events = 0;
  std::size_t recovered_run_events = 0;
  /// Events inside the convergence window (per run; equal when ok).
  std::size_t compared_events = 0;
  std::vector<std::string> violations;
  DurabilityCounters counters;  // both lives of the crashed run, merged

  bool ok() const noexcept { return violations.empty(); }
};

/// Plays the soak's plan (make_soak_plan) twice: through a bare
/// front-end exactly as run_soak does (the golden run), and through a
/// DurableMonitor killed at the armed point, recovered, and resumed at
/// the step it died in. Asserts the recovered event stream converges
/// with the golden one. Never lets SimulatedCrash escape.
CrashSoakReport run_crash_soak(const CrashSoakConfig& config);

/// run_soak's scenario driven through a DurableMonitor instead of a
/// bare front-end: same chaos, same invariants, plus journaling and
/// snapshotting overhead and their counters in the report.
SoakReport run_durable_soak(const SoakConfig& config,
                            const DurabilityConfig& durability);

}  // namespace tagbreathe::core
