#include "core/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/observability.hpp"

namespace tagbreathe::core {

namespace {

/// Fills `times` with the in-window read times of `streams`, ascending.
/// Each stream normally holds its reads in time order, so the gather
/// leaves one sorted run per stream and the runs are merged pairwise
/// through `spare` (O(n log k) for k runs). If any run is out of order
/// (reads that reached the demux late) the whole gather is std::sorted
/// instead. Both yield the same sequence, because two times that compare
/// equal are the same double (-0.0 and +0.0 aside, which a read
/// timestamp does not carry).
void gather_window_times(std::span<const std::vector<TagRead>* const> streams,
                         double t0, double t1, std::vector<double>& times,
                         std::vector<double>& spare,
                         std::vector<std::size_t>& run_ends) {
  times.clear();
  run_ends.clear();
  bool ordered = true;
  for (const auto* stream : streams) {
    const std::size_t begin = times.size();
    for (const TagRead& r : *stream)
      if (r.time_s >= t0 && r.time_s <= t1) times.push_back(r.time_s);
    if (times.size() == begin) continue;
    ordered = ordered &&
              std::is_sorted(times.data() + begin, times.data() + times.size());
    run_ends.push_back(times.size());
  }
  if (!ordered) {
    std::sort(times.begin(), times.end());
    return;
  }
  // Each pass merges neighbouring runs; an odd last run is copied over.
  while (run_ends.size() > 1) {
    spare.resize(times.size());
    const double* src = times.data();
    double* dst = spare.data();
    std::size_t begin = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < run_ends.size(); i += 2) {
      const std::size_t mid = run_ends[i];
      const std::size_t end = i + 1 < run_ends.size() ? run_ends[i + 1] : mid;
      std::merge(src + begin, src + mid, src + mid, src + end, dst + begin);
      run_ends[kept++] = end;
      begin = end;
    }
    run_ends.resize(kept);
    times.swap(spare);
  }
}

}  // namespace

BreathMonitor::BreathMonitor(MonitorConfig config)
    : config_(std::move(config)) {
  // Sanitize the health thresholds rather than throwing: ablation
  // configs legitimately push them around, but NaN or negative values
  // would make every SignalHealth comparison silently false.
  if (!std::isfinite(config_.stale_after_s) || config_.stale_after_s < 0.0)
    config_.stale_after_s = 0.0;
  if (!std::isfinite(config_.lost_after_s) || config_.lost_after_s < 0.0)
    config_.lost_after_s = 0.0;
  if (!std::isfinite(config_.min_coverage))
    config_.min_coverage = 0.0;
  config_.min_coverage = std::clamp(config_.min_coverage, 0.0, 1.0);
}

std::vector<UserAnalysis> BreathMonitor::analyze(
    std::span<const TagRead> reads) const {
  std::vector<UserAnalysis> out;
  if (reads.empty()) return out;

  StreamDemux demux;
  demux.add(reads);

  double t0 = reads.front().time_s;
  double t1 = reads.front().time_s;
  for (const TagRead& r : reads) {
    t0 = std::min(t0, r.time_s);
    t1 = std::max(t1, r.time_s);
  }

  const std::vector<std::uint64_t> users = demux.users();
  out.resize(users.size());
  AnalysisScratch scratch;
  analyze_users(demux, users, t0, t1, &scratch, out);
  return out;
}

bool BreathMonitor::analyze_prepare(const StreamDemux& demux,
                                    std::uint64_t user_id, double t0,
                                    double t1, AnalysisScratch& scratch,
                                    UserAnalysis& out,
                                    double& stage_mark) const {
  out = UserAnalysis{};
  out.user_id = user_id;
  out.window_s = std::max(t1 - t0, 0.0);

  if (obs_.hub != nullptr)
    obs_.hub->trace().enter(obs_.trace_stage, t1, user_id);

  const auto all_streams = demux.streams_for_user(user_id);
  if (all_streams.empty()) return false;

  // Signal health: judged over every stream the user has, so a working
  // set that went quiet is not mistaken for a healthy signal.
  {
    std::vector<double>& times = scratch.read_times;
    gather_window_times(all_streams, t0, t1, times, scratch.merge_spare,
                        scratch.run_ends);
    if (!times.empty()) {
      out.last_read_s = times.back();
      out.tail_gap_s = t1 - times.back();
      const double lead_gap = times.front() - t0;
      out.max_gap_s = std::max(lead_gap, out.tail_gap_s);
      double gap_time = lead_gap > config_.stale_after_s ? lead_gap : 0.0;
      for (std::size_t i = 1; i < times.size(); ++i) {
        const double gap = times[i] - times[i - 1];
        out.max_gap_s = std::max(out.max_gap_s, gap);
        if (gap > config_.stale_after_s) gap_time += gap;
      }
      if (out.tail_gap_s > config_.stale_after_s)
        gap_time += out.tail_gap_s;
      out.coverage = out.window_s > 0.0
                         ? std::clamp(1.0 - gap_time / out.window_s, 0.0, 1.0)
                         : 1.0;
      const bool gap_too_wide = config_.max_gap_for_ok_s > 0.0 &&
                                out.max_gap_s >= config_.max_gap_for_ok_s;
      if (out.tail_gap_s >= config_.lost_after_s) {
        out.health = SignalHealth::Lost;
      } else if (out.tail_gap_s >= config_.stale_after_s ||
                 out.coverage < config_.min_coverage || gap_too_wide) {
        out.health = SignalHealth::Stale;
      } else {
        out.health = SignalHealth::Ok;
      }
    }
  }

  out.antenna_scores = score_antennas(all_streams, out.window_s,
                                      config_.antenna);

  // Pick the working set of streams: best antenna (default) or all.
  std::vector<const std::vector<TagRead>*> working;
  if (config_.select_antenna && !out.antenna_scores.empty()) {
    out.antenna_used = out.antenna_scores.front().antenna_id;
    working = demux.streams_for_user_antenna(user_id, out.antenna_used);
  } else {
    working = all_streams;
  }
  if (!config_.fuse_tags && working.size() > 1) {
    // Ablation: keep only the busiest stream.
    const auto busiest = std::max_element(
        working.begin(), working.end(),
        [](const std::vector<TagRead>* a, const std::vector<TagRead>* b) {
          return a->size() < b->size();
        });
    working = {*busiest};
  }

  // Stage timings read the hub's latency clock once per boundary; with
  // the hub unbound `stage_mark` stays 0 and no histogram is touched.
  stage_mark = obs_.hub != nullptr ? obs_.hub->now() : 0.0;
  const auto time_stage = [&](obs::Histogram* h) {
    if (obs_.hub == nullptr) return;
    const double now = obs_.hub->now();
    h->observe(now - stage_mark);
    stage_mark = now;
  };

  // Phase preprocessing per stream (Eqs. 3-4), through the slot's pooled
  // preprocessor (reconfigure() restores the fresh-instance state while
  // keeping every buffer's high-water capacity).
  auto& deltas = scratch.deltas;
  if (deltas.size() < working.size()) deltas.resize(working.size());
  for (std::size_t k = 0; k < working.size(); ++k) {
    scratch.pre.reconfigure(config_.preprocess);
    scratch.pre.process_into(*working[k], deltas[k]);
    out.reads_used += working[k]->size();
  }
  out.streams_used = working.size();
  time_stage(obs_.preprocess);

  // Low-level fusion (Eqs. 6-7) over the window. Only the prefix of the
  // delta staging belongs to this user — older entries are stale.
  const FusedTrack fused = fuse_streams(
      std::span<const std::vector<signal::TimedSample>>(deltas.data(),
                                                        working.size()),
      t0, t1, config_.fusion);
  out.fused_track = fused.track;
  out.track_rate_hz = fused.sample_rate_hz();
  time_stage(obs_.fuse);
  return out.fused_track.size() >= 8;
}

UserAnalysis BreathMonitor::analyze_user(const StreamDemux& demux,
                                         std::uint64_t user_id, double t0,
                                         double t1,
                                         AnalysisScratch* scratch) const {
  UserAnalysis out;
  analyze_users(demux, {&user_id, 1}, t0, t1, scratch, {&out, 1});
  return out;
}

void BreathMonitor::analyze_users(const StreamDemux& demux,
                                  std::span<const std::uint64_t> user_ids,
                                  double t0, double t1,
                                  AnalysisScratch* scratch,
                                  std::span<UserAnalysis> out) const {
  if (out.size() != user_ids.size())
    throw std::invalid_argument(
        "BreathMonitor: analyze_users out/user_ids size mismatch");
  if (user_ids.empty()) return;
  AnalysisScratch local;
  AnalysisScratch& s = scratch != nullptr ? *scratch : local;
  const std::size_t count = user_ids.size();

  // Stage A (per user): the pre-extraction workflow; ready fused tracks
  // are staged as extraction jobs. Users that cannot be extracted finish
  // here (their trace span closes immediately).
  s.extract_jobs.clear();
  double stage_mark = 0.0;
  for (std::size_t j = 0; j < count; ++j) {
    if (analyze_prepare(demux, user_ids[j], t0, t1, s, out[j], stage_mark)) {
      s.extract_jobs.push_back(
          ExtractJob{out[j].fused_track, out[j].track_rate_hz,
                     &out[j].breath});
    } else if (obs_.hub != nullptr) {
      obs_.hub->trace().exit(obs_.trace_stage, t1, user_ids[j]);
    }
  }

  // Stage B: ONE batched extraction sweep over every ready track. The
  // whole batch's transforms run through the shared plan back to back;
  // the extract histogram observes the sweep once.
  const BreathExtractor extractor(config_.extractor);
  const double extract_mark = obs_.hub != nullptr ? obs_.hub->now() : 0.0;
  extractor.extract_many(s.extract_jobs, s.fft, s.extract);
  if (obs_.hub != nullptr && !s.extract_jobs.empty())
    obs_.extract->observe(obs_.hub->now() - extract_mark);

  // Stage C (per user): rate estimation over the extracted signal.
  const ZeroCrossingRateEstimator estimator(config_.rate);
  for (std::size_t j = 0; j < count; ++j) {
    if (out[j].fused_track.size() < 8) continue;  // finished in stage A
    const double mark = obs_.hub != nullptr ? obs_.hub->now() : 0.0;
    out[j].rate = estimator.estimate(out[j].breath);
    if (obs_.hub != nullptr) {
      obs_.estimate->observe(obs_.hub->now() - mark);
      obs_.hub->trace().exit(obs_.trace_stage, t1, user_ids[j]);
    }
  }
}

void BreathMonitor::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  const auto bounds = obs::default_latency_bounds();
  obs_.preprocess =
      &m.histogram("analysis_stage_seconds", bounds, "stage", "preprocess");
  obs_.fuse = &m.histogram("analysis_stage_seconds", bounds, "stage", "fuse");
  obs_.extract =
      &m.histogram("analysis_stage_seconds", bounds, "stage", "extract");
  obs_.estimate =
      &m.histogram("analysis_stage_seconds", bounds, "stage", "estimate");
  obs_.trace_stage = hub.trace().register_stage("monitor.analyze");
  obs_.hub = &hub;
}

}  // namespace tagbreathe::core
