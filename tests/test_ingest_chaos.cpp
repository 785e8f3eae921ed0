// Ingest front-end and chaos-harness tests: backpressure policies at
// queue-full, validation & quarantine (duplicates, timestamp
// regressions, malformed/unknown EPCs), LRU admission control, the
// LLRP hand-off into the queue, and the seeded multi-user soak under
// the composite chaos scenario (determinism + invariants).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "body/subject.hpp"
#include "common/units.hpp"
#include "core/chaos.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "llrp/session.hpp"
#include "soak_invariants.hpp"

namespace tagbreathe::core {
namespace {

TagRead make_read(double t, std::uint64_t user, std::uint32_t tag,
                  double phase = 1.0, std::uint8_t antenna = 1) {
  TagRead r;
  r.time_s = t;
  r.epc = rfid::Epc96::from_user_tag(user, tag);
  r.antenna_id = antenna;
  r.frequency_hz = 920.625e6;
  r.rssi_dbm = -55.0;
  r.phase_rad = phase;
  return r;
}

// --- config validation ------------------------------------------------------

TEST(IngestConfigValidation, RejectsNonsense) {
  IngestConfig cfg;
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = IngestConfig{};
  cfg.repair_skew_s = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = IngestConfig{};
  cfg.duplicate_window_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(IngestConfig{}.validate());
}

TEST(PipelineConfigValidation, RejectsNonsense) {
  PipelineConfig cfg;
  cfg.window_s = -30.0;
  EXPECT_THROW(RealtimePipeline{cfg}, std::invalid_argument);
  cfg = PipelineConfig{};
  cfg.update_period_s = 0.0;
  EXPECT_THROW(RealtimePipeline{cfg}, std::invalid_argument);
  cfg = PipelineConfig{};
  cfg.warmup_s = cfg.window_s + 1.0;
  EXPECT_THROW(RealtimePipeline{cfg}, std::invalid_argument);
  cfg = PipelineConfig{};
  cfg.signal_loss_s = -1.0;
  EXPECT_THROW(RealtimePipeline{cfg}, std::invalid_argument);
  EXPECT_NO_THROW(RealtimePipeline{PipelineConfig{}});
}

TEST(ChaosConfigValidation, RejectsNonsense) {
  ChaosConfig cfg;
  cfg.dropout_prob = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ChaosConfig{};
  cfg.blackout_period_s = 10.0;
  cfg.blackout_duration_s = 10.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ChaosConfig{};
  cfg.reorder_prob = 0.5;  // without a positive max delay
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ChaosConfig::composite(1).validate());
}

// --- enum name helpers are total -------------------------------------------

TEST(EnumNames, TotalOverUnknownValues) {
  EXPECT_STREQ(pipeline_event_name(static_cast<PipelineEventKind>(200)),
               "unknown-event");
  EXPECT_STREQ(backpressure_policy_name(static_cast<BackpressurePolicy>(99)),
               "unknown-policy");
  EXPECT_STREQ(enqueue_result_name(static_cast<EnqueueResult>(99)),
               "unknown-result");
  EXPECT_STREQ(quarantine_reason_name(static_cast<QuarantineReason>(99)),
               "unknown-reason");
  // Known values still name themselves.
  EXPECT_STREQ(pipeline_event_name(PipelineEventKind::ApneaAlert),
               "apnea-alert");
  EXPECT_STREQ(backpressure_policy_name(BackpressurePolicy::Coalesce),
               "coalesce");
  EXPECT_STREQ(quarantine_reason_name(QuarantineReason::DuplicateRead),
               "duplicate-read");
}

// --- queue backpressure at capacity ----------------------------------------

TEST(IngestQueue, DropOldestShedsTheOldestRead) {
  IngestQueue queue(4, BackpressurePolicy::DropOldest);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(queue.push(make_read(i, 1, 1)), EnqueueResult::Enqueued);
  EXPECT_EQ(queue.push(make_read(4.0, 1, 1)), EnqueueResult::DroppedOldest);
  EXPECT_EQ(queue.push(make_read(5.0, 1, 1)), EnqueueResult::DroppedOldest);

  std::vector<TagRead> out;
  EXPECT_EQ(queue.drain(out, 6.0), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out.front().time_s, 2.0);  // 0 and 1 were shed
  EXPECT_DOUBLE_EQ(out.back().time_s, 5.0);

  const auto counters = queue.counters();
  EXPECT_EQ(counters.enqueued, 6u);
  EXPECT_EQ(counters.shed_oldest, 2u);
  EXPECT_EQ(counters.drained, 4u);
  EXPECT_EQ(counters.peak_depth, 4u);
}

TEST(IngestQueue, CoalesceReplacesTheNewestSameTagRead) {
  IngestQueue queue(2, BackpressurePolicy::Coalesce);
  queue.push(make_read(0.0, 1, 1, 0.1));
  queue.push(make_read(0.1, 1, 2, 0.2));
  // Full; same tag (1,2) => its queued read leaves, the new one joins
  // at the back.
  EXPECT_EQ(queue.push(make_read(0.2, 1, 2, 0.9)), EnqueueResult::Coalesced);
  // Full; no queued read of tag (2,7) => falls back to shedding oldest.
  EXPECT_EQ(queue.push(make_read(0.3, 2, 7)), EnqueueResult::DroppedOldest);

  std::vector<TagRead> out;
  queue.drain(out, 1.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].phase_rad, 0.9);  // the coalesced survivor
  EXPECT_EQ(out[1].epc.user_id(), 2u);

  const auto counters = queue.counters();
  EXPECT_EQ(counters.coalesced, 1u);
  EXPECT_EQ(counters.shed_oldest, 1u);
}

// Eq. 3 differences consecutive reads of one stream, so the queue must
// hand reads over in arrival order even while it coalesces: a dense
// stream (user 1, 10 Hz) and a sparse one (user 2, 1 Hz) overflow an
// 8-slot queue for 2 s with no drain in between, and the validator
// must take the one drain as it is, with nothing quarantined.
TEST(IngestQueue, CoalesceKeepsArrivalOrder) {
  IngestQueue queue(8, BackpressurePolicy::Coalesce);
  for (int i = 0; i < 20; ++i) {
    const double t = 0.1 * i;
    queue.push(make_read(t, 1, 1, 0.01 * i));
    if (i % 10 == 0) queue.push(make_read(t + 0.05, 2, 1, 0.02 * i));
  }
  std::vector<TagRead> out;
  ASSERT_EQ(queue.drain(out, 2.0), 8u);

  ReadValidator validator{IngestConfig{}};
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(out[i].time_s, out[i - 1].time_s) << "read " << i;
    }
    validator.admit(out[i]);
  }
  EXPECT_EQ(validator.counters().quarantined_total, 0u);
  EXPECT_EQ(validator.counters().repaired_timestamps, 0u);
  EXPECT_EQ(validator.counters().admitted, 8u);
  EXPECT_DOUBLE_EQ(out.back().time_s, 1.9);  // the newest read survives
}

TEST(IngestQueue, BlockPolicyRefusesTryPushAndWaitsOnPush) {
  IngestQueue queue(2, BackpressurePolicy::Block);
  queue.push(make_read(0.0, 1, 1));
  queue.push(make_read(0.1, 1, 1));
  EXPECT_EQ(queue.try_push(make_read(0.2, 1, 1)), EnqueueResult::WouldBlock);
  EXPECT_EQ(queue.counters().would_block, 1u);

  // A blocking producer parks until the consumer drains.
  EnqueueResult result = EnqueueResult::Closed;
  std::thread producer(
      [&] { result = queue.push(make_read(0.3, 1, 1)); });
  while (queue.counters().blocked_pushes == 0) std::this_thread::yield();
  std::vector<TagRead> out;
  queue.drain(out, 1.0);
  producer.join();
  EXPECT_EQ(result, EnqueueResult::Enqueued);
  EXPECT_EQ(queue.size(), 1u);

  // close() wakes and refuses late producers.
  queue.close();
  EXPECT_EQ(queue.push(make_read(0.4, 1, 1)), EnqueueResult::Closed);
}

TEST(IngestQueue, RecordsStreamTimeLatency) {
  IngestQueue queue(8, BackpressurePolicy::DropOldest);
  queue.push(make_read(0.0, 1, 1), /*now_s=*/1.0);
  queue.push(make_read(0.0, 1, 1), /*now_s=*/2.5);
  std::vector<TagRead> out;
  queue.drain(out, /*now_s=*/3.0);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.queue_delay.samples, 2u);
  EXPECT_DOUBLE_EQ(counters.queue_delay.max_s, 2.0);
  EXPECT_DOUBLE_EQ(counters.queue_delay.mean_s(), (2.0 + 0.5) / 2.0);
}

// --- validation & quarantine ------------------------------------------------

TEST(ReadValidator, SuppressesDuplicateDeliveries) {
  ReadValidator validator{IngestConfig{}};
  TagRead read = make_read(1.0, 1, 1, 2.5);
  TagRead dup = read;
  EXPECT_TRUE(validator.admit(read).admitted);
  const auto verdict = validator.admit(dup);
  EXPECT_FALSE(verdict.admitted);
  EXPECT_EQ(verdict.reason, QuarantineReason::DuplicateRead);
  // Same instant, different phase (a genuine second read) is kept.
  TagRead other = make_read(1.0, 1, 1, 2.6);
  EXPECT_TRUE(validator.admit(other).admitted);
  EXPECT_EQ(validator.counters().admitted, 2u);
  EXPECT_EQ(validator.counters()
                .quarantined[static_cast<std::size_t>(
                    QuarantineReason::DuplicateRead)],
            1u);
}

TEST(ReadValidator, RepairsSmallRegressionsRejectsLargeOnes) {
  IngestConfig cfg;
  cfg.repair_skew_s = 0.25;
  ReadValidator validator(cfg);
  TagRead a = make_read(10.0, 1, 1, 0.3);
  EXPECT_TRUE(validator.admit(a).admitted);

  TagRead jitter = make_read(9.9, 1, 2, 0.4);  // within the repair band
  const auto repaired = validator.admit(jitter);
  EXPECT_TRUE(repaired.admitted);
  EXPECT_TRUE(repaired.repaired);
  EXPECT_DOUBLE_EQ(jitter.time_s, 10.0);  // clamped to the frontier
  EXPECT_EQ(validator.counters().repaired_timestamps, 1u);

  TagRead step = make_read(5.0, 1, 3, 0.5);  // clock stepped way back
  const auto rejected = validator.admit(step);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, QuarantineReason::TimestampRegression);
  EXPECT_DOUBLE_EQ(validator.last_admitted_s(), 10.0);
}

TEST(ReadValidator, QuarantinesMalformedAndUnknownAndNonFinite) {
  IngestConfig cfg;
  cfg.monitored_users = {1, 2};
  ReadValidator validator(cfg);

  TagRead zero_user = make_read(0.0, 0, 1);
  EXPECT_EQ(validator.admit(zero_user).reason,
            QuarantineReason::MalformedEpc);
  TagRead zero_tag = make_read(0.0, 1, 0);
  EXPECT_EQ(validator.admit(zero_tag).reason, QuarantineReason::MalformedEpc);

  TagRead stranger = make_read(0.0, 9, 1);
  EXPECT_EQ(validator.admit(stranger).reason, QuarantineReason::UnknownUser);

  TagRead nan_phase = make_read(0.0, 1, 1);
  nan_phase.phase_rad = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(validator.admit(nan_phase).reason,
            QuarantineReason::NonFiniteField);

  EXPECT_EQ(validator.counters().admitted, 0u);
  EXPECT_EQ(validator.counters().quarantined_total, 4u);
}

TEST(ReadValidator, LruEvictionFollowsRecency) {
  IngestConfig cfg;
  cfg.max_users = 2;
  ReadValidator validator(cfg);
  TagRead r1 = make_read(0.0, 1, 1, 0.1);
  TagRead r2 = make_read(0.1, 2, 1, 0.2);
  TagRead r1b = make_read(0.2, 1, 1, 0.3);  // touch user 1
  TagRead r3 = make_read(0.3, 3, 1, 0.4);   // must evict user 2 (LRU)
  TagRead r4 = make_read(0.4, 4, 1, 0.5);   // must evict user 1
  EXPECT_TRUE(validator.admit(r1).admitted);
  EXPECT_TRUE(validator.admit(r2).admitted);
  EXPECT_TRUE(validator.admit(r1b).admitted);
  EXPECT_TRUE(validator.admit(r3).admitted);
  const auto first = validator.take_evicted_users();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], 2u);
  EXPECT_TRUE(validator.admit(r4).admitted);
  const auto second = validator.take_evicted_users();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 1u);
  EXPECT_EQ(validator.tracked_users(), 2u);
  EXPECT_EQ(validator.counters().users_evicted, 2u);
}

TEST(Pipeline, AdmissionCapEvictsLeastRecentlyReadUser) {
  PipelineConfig cfg;
  cfg.max_users = 2;
  RealtimePipeline pipeline(cfg);
  pipeline.push(make_read(0.0, 1, 1));
  pipeline.push(make_read(0.5, 2, 1));
  pipeline.push(make_read(1.0, 1, 1));  // user 1 now the freshest
  pipeline.push(make_read(1.5, 3, 1));  // evicts user 2
  EXPECT_EQ(pipeline.tracked_users(), 2u);
  EXPECT_EQ(pipeline.users_evicted(), 1u);
  EXPECT_EQ(pipeline.health(2), SignalHealth::Lost);  // forgotten
}

// --- front-end end-to-end ----------------------------------------------------

TEST(IngestFrontEnd, FeedsPipelineMonotonicValidatedReads) {
  PipelineConfig pcfg;
  RealtimePipeline pipeline(pcfg);
  IngestConfig icfg;
  icfg.monitored_users = {1};
  IngestFrontEnd frontend(icfg, pipeline);

  // Jittered, duplicated and corrupt deliveries.
  frontend.offer(make_read(1.00, 1, 1, 0.10));
  frontend.offer(make_read(1.00, 1, 1, 0.10));  // duplicate
  frontend.offer(make_read(0.95, 1, 2, 0.20));  // jitter within repair band
  frontend.offer(make_read(1.10, 7, 1, 0.30));  // unknown user
  TagRead bad = make_read(1.20, 1, 1, 0.40);
  bad.doppler_hz = std::numeric_limits<double>::infinity();
  frontend.offer(bad);
  EXPECT_EQ(frontend.pump(2.0), 2u);

  const auto& v = frontend.validation();
  EXPECT_EQ(v.admitted, 2u);
  EXPECT_EQ(v.repaired_timestamps, 1u);
  EXPECT_EQ(v.quarantined_total, 3u);
  EXPECT_DOUBLE_EQ(pipeline.now_s(), 2.0);
  const auto q = frontend.queue_counters();
  EXPECT_EQ(q.enqueued, 5u);
  EXPECT_EQ(q.drained, 5u);
}

TEST(SupervisorHandoff, RoutesLlrpReadsThroughIngestQueue) {
  // Full wire path: reader sim -> LLRP frames -> client decode ->
  // bounded queue -> validation -> pipeline.
  body::SubjectConfig scfg;
  scfg.user_id = 1;
  scfg.position = {3.0, 0.0, 0.0};
  scfg.heading_rad = common::kPi;
  auto subject = std::make_unique<body::Subject>(
      scfg, body::BreathingModel(body::MetronomeSchedule(12.0), {}));
  std::vector<std::unique_ptr<rfid::TagBehavior>> tags;
  for (int i = 0; i < 3; ++i) {
    tags.push_back(std::make_unique<rfid::BodyTag>(
        rfid::Epc96::from_user_tag(1, static_cast<std::uint32_t>(i + 1)),
        subject.get(),
        body::Subject::all_sites()[static_cast<std::size_t>(i)]));
  }
  rfid::ReaderConfig rc;
  rc.seed = 77;

  llrp::SupervisedSessionConfig cfg;
  cfg.faults = llrp::FaultPlan::none();
  llrp::SupervisedSession session(cfg,
                                  std::make_unique<rfid::ReaderSim>(
                                      rc, std::move(tags)));

  PipelineConfig pcfg;
  RealtimePipeline pipeline(pcfg);
  IngestConfig icfg;
  icfg.monitored_users = {1};
  IngestFrontEnd frontend(icfg, pipeline);
  session.supervisor().route_reads_to(frontend.queue());

  for (int step = 0; step < 40; ++step) {
    session.advance(0.25);
    frontend.pump(session.now_s());
  }

  EXPECT_EQ(session.supervisor().state(), llrp::SessionState::Streaming);
  EXPECT_GT(frontend.validation().admitted, 100u);
  EXPECT_EQ(frontend.validation()
                .quarantined[static_cast<std::size_t>(
                    QuarantineReason::UnknownUser)],
            0u);
  EXPECT_GT(pipeline.now_s(), 9.0);
}

// --- chaos soak ---------------------------------------------------------------

SoakConfig acceptance_soak(std::uint64_t seed) {
  SoakConfig cfg;
  cfg.n_users = 3;
  cfg.tags_per_user = 2;
  cfg.duration_s = 600.0;  // the 10-minute acceptance scenario
  cfg.read_rate_hz = 8.0;
  cfg.pipeline.window_s = 20.0;
  cfg.pipeline.warmup_s = 8.0;
  cfg.pipeline.max_reads_per_stream = 4096;
  cfg.ingest.max_users = 3;
  cfg.ingest.queue_capacity = 1024;
  cfg.chaos = ChaosConfig::composite(seed);
  return cfg;
}

TEST(ChaosSoak, CompositeTenMinuteSoakHoldsInvariants) {
  const SoakConfig cfg = acceptance_soak(0xD15EA5E);
  const SoakReport report = run_soak(cfg);
  testutil::expect_no_violations(report.violations);
  testutil::expect_queue_conservation(report.queue, cfg.ingest.queue_capacity);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.events, 100u);
  EXPECT_LE(report.peak_tracked_users, 3u);
  // Every chaos mode actually fired.
  EXPECT_GT(report.chaos.dropped, 0u);
  EXPECT_GT(report.chaos.blackout_dropped, 0u);
  EXPECT_GT(report.chaos.duplicated, 0u);
  EXPECT_GT(report.chaos.reordered, 0u);
  EXPECT_GT(report.chaos.skewed, 0u);
  EXPECT_GT(report.chaos.corrupted, 0u);
  EXPECT_GT(report.chaos.burst_injected, 0u);
  // ...and the admission layer caught dirty reads of every class.
  EXPECT_GT(report.validation.repaired_timestamps, 0u);
  EXPECT_GT(report.validation.quarantined_total, 0u);
  EXPECT_GT(report.signal_lost_events, 0u);
  EXPECT_GT(report.signal_recovered_events, 0u);
}

TEST(ChaosSoak, SameSeedSameEventLog) {
  const SoakReport a = run_soak(acceptance_soak(42));
  const SoakReport b = run_soak(acceptance_soak(42));
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.validation.admitted, b.validation.admitted);
  EXPECT_EQ(a.queue.enqueued, b.queue.enqueued);
}

TEST(ChaosSoak, DifferentSeedsDiverge) {
  SoakConfig cfg = acceptance_soak(1);
  cfg.duration_s = 90.0;
  const SoakReport a = run_soak(cfg);
  cfg.chaos.seed = 2;
  const SoakReport b = run_soak(cfg);
  EXPECT_NE(a.event_log, b.event_log);
}

TEST(ChaosSoak, BurstOverloadIsBoundedByTheQueue) {
  SoakConfig cfg = acceptance_soak(7);
  cfg.duration_s = 120.0;
  cfg.ingest.queue_capacity = 64;  // tiny queue under burst pressure
  cfg.ingest.policy = BackpressurePolicy::Coalesce;
  const SoakReport report = run_soak(cfg);
  testutil::expect_no_violations(report.violations);
  testutil::expect_queue_conservation(report.queue, cfg.ingest.queue_capacity);
  EXPECT_LE(report.queue.peak_depth, 64u);
}

}  // namespace
}  // namespace tagbreathe::core
