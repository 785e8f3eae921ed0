#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/observability.hpp"
#include "signal/simd/dispatch.hpp"

namespace tagbreathe::core {

namespace {

/// Users per analyze_users batch in the update fan-out: each batch's
/// transforms share one extract_many sweep on one warm slot scratch.
/// Results do not depend on it (analyze_users is batch-invariant).
constexpr std::size_t kAnalysisBatch = 16;

}  // namespace

const char* pipeline_event_name(PipelineEventKind kind) noexcept {
  // Total over the underlying type: an out-of-range value (a corrupted
  // byte reinterpreted as an event kind) names itself rather than
  // falling off the switch.
  switch (kind) {
    case PipelineEventKind::RateUpdate: return "rate-update";
    case PipelineEventKind::ApneaAlert: return "apnea-alert";
    case PipelineEventKind::SignalLost: return "signal-lost";
    case PipelineEventKind::SignalRecovered: return "signal-recovered";
    default: return "unknown-event";
  }
}

void PipelineConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("PipelineConfig: " + what);
  };
  if (!(window_s > 0.0) || !std::isfinite(window_s))
    bad("window_s must be positive and finite");
  if (!(update_period_s > 0.0) || !std::isfinite(update_period_s))
    bad("update_period_s must be positive and finite");
  if (warmup_s < 0.0 || !std::isfinite(warmup_s))
    bad("warmup_s must be non-negative and finite");
  if (warmup_s > window_s) bad("warmup_s must not exceed window_s");
  if (apnea_silence_s < 0.0 || !std::isfinite(apnea_silence_s))
    bad("apnea_silence_s must be non-negative and finite");
  if (signal_loss_s < 0.0 || !std::isfinite(signal_loss_s))
    bad("signal_loss_s must be non-negative and finite");
  if (analysis_threads > 256)
    bad("analysis_threads must be <= 256 (0 = serial)");
}

RealtimePipeline::RealtimePipeline(PipelineConfig config,
                                   EventCallback callback)
    : config_(config),
      callback_(std::move(callback)),
      monitor_(config.monitor) {
  config_.validate();
  // A coasting user was read within signal_loss_s, and that read came
  // before its analysis tick (a later read forces a re-analysis), so it
  // coasts on at most this many grid ticks. Stepped like advance_to.
  for (double t = config_.update_period_s; t <= config_.signal_loss_s;
       t += config_.update_period_s)
    ++coast_ticks_;
  demux_.set_max_reads_per_stream(config_.max_reads_per_stream);
  if (config_.analysis_threads > 0)
    pool_ = std::make_unique<AnalysisPool>(config_.analysis_threads);
  scratch_.resize(pool_ != nullptr ? pool_->slots() : 1);
}

void RealtimePipeline::emit(const PipelineEvent& event) {
  const auto kind = static_cast<std::size_t>(event.kind);
  if (kind < std::size(events_emitted_)) ++events_emitted_[kind];
  if (callback_) callback_(event);
}

void RealtimePipeline::bind_observability(obs::Observability& hub) {
  monitor_.bind_observability(hub);
  demux_.bind_observability(hub);
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    sink.emit("pipeline_analyses_total", analyses_run_);
    sink.emit("pipeline_analyses_skipped_total", analyses_skipped_);
    sink.emit("pipeline_users_evicted_total", users_evicted_);
    sink.emit("pipeline_updates_total", updates_run_);
    for (std::size_t i = 0; i < std::size(events_emitted_); ++i) {
      sink.emit("pipeline_events_total", "kind",
                pipeline_event_name(static_cast<PipelineEventKind>(i)),
                events_emitted_[i]);
    }
  });
  obs_.tracked = &m.gauge("pipeline_tracked_users");
  obs_.update_seconds =
      &m.histogram("pipeline_update_seconds", obs::default_latency_bounds());
  static constexpr std::array<double, 9> kFanoutBounds = {
      0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
  obs_.fanout = &m.histogram("pipeline_fanout_users", kFanoutBounds);
  // Capacity instrumentation (ISSUE 10): resident bytes per tracked
  // user, arena occupancy and registry probe lengths, sampled at tick
  // cadence (footprint_bytes is O(streams), too hot for per-read).
  obs_.bytes_per_user = &m.gauge("capacity_bytes_per_user");
  obs_.arena_occupancy = &m.gauge("capacity_arena_occupancy");
  static constexpr std::array<double, 8> kProbeBounds = {0.0,  1.0,  2.0,
                                                         4.0,  8.0,  16.0,
                                                         32.0, 64.0};
  obs_.probe_length = &m.histogram("capacity_probe_length", kProbeBounds);
  obs_.trace_stage = hub.trace().register_stage("pipeline.update");
  // DSP dispatch level the process resolved at startup (0 = scalar,
  // 1 = AVX2, 2 = NEON): exported once — the level cannot change after
  // the first kernel call.
  m.gauge("dsp_simd_level")
      .set(static_cast<double>(signal::simd::active_level_value()));
  obs_.tracked->set(static_cast<double>(user_state_.size()));
  obs_.hub = &hub;
}

SignalHealth RealtimePipeline::health(std::uint64_t user_id) const noexcept {
  const UserState* state = user_state_.find(user_id);
  return state == nullptr ? SignalHealth::Lost : state->health;
}

void RealtimePipeline::forget_user(std::uint64_t user_id) {
  user_state_.erase(user_id);
  last_seen_reads_.erase(user_id);
  demux_.drop_user(user_id);
}

void RealtimePipeline::push(const TagRead& read) {
  if (!started_) {
    started_ = true;
    start_ = read.time_s;
    next_update_ = start_ + config_.update_period_s;
  }
  // Process any update boundaries that elapsed *before* this read:
  // after a dropout, the pending updates must still see the silence
  // (registering the read first would erase the evidence of the outage).
  advance_to(read.time_s);
  const std::uint64_t user = read.epc.user_id();
  if (config_.max_users > 0 && !user_state_.contains(user) &&
      user_state_.size() >= config_.max_users) {
    // Admission cap reached: evict the least-recently-read user, ties
    // broken by the LOWEST user id. The ordering contract is explicit
    // now (ISSUE 10): the old implementation leaned on std::map's
    // ascending iteration to break ties, which a hash-ordered registry
    // does not provide — so the tie-break is part of the min, not an
    // iteration-order accident. test_capacity regression-tests that
    // insertion order cannot change the victim.
    bool have_victim = false;
    std::uint64_t victim_id = 0;
    double victim_read = 0.0;
    user_state_.for_each(
        [&](const std::uint64_t& id, const UserState& state) {
          if (!have_victim || state.last_read_s < victim_read ||
              (state.last_read_s == victim_read && id < victim_id)) {
            have_victim = true;
            victim_id = id;
            victim_read = state.last_read_s;
          }
        });
    forget_user(victim_id);
    ++users_evicted_;
  }
  demux_.add(read);
  auto& state = user_state_[user];
  state.last_read_s = read.time_s;
}

PipelineState RealtimePipeline::export_state() const {
  PipelineState state;
  state.now_s = now_;
  state.start_s = start_;
  state.next_update_s = next_update_;
  state.started = started_;
  state.users_evicted = users_evicted_;
  state.users.reserve(user_state_.size());
  // for_each_ordered: the snapshot image must not depend on registry
  // hash layout (byte-identical snapshots across runs and imports).
  user_state_.for_each_ordered(
      [&state](const std::uint64_t& user, const UserState& us) {
        state.users.push_back(PipelineState::User{
            user, us.last_read_s, us.last_crossing_s, us.in_apnea, us.lost,
            us.ever_reliable, us.health});
      });
  state.last_seen_reads.reserve(last_seen_reads_.size());
  last_seen_reads_.for_each_ordered(
      [&state](const std::uint64_t& user, const std::uint64_t& seen) {
        state.last_seen_reads.push_back({user, seen});
      });
  state.demux = demux_.export_state();
  return state;
}

void RealtimePipeline::import_state(PipelineState state) {
  now_ = state.now_s;
  start_ = state.start_s;
  next_update_ = state.next_update_s;
  started_ = state.started;
  users_evicted_ = state.users_evicted;
  user_state_.clear();
  for (const PipelineState::User& u : state.users) {
    user_state_[u.user_id] =
        UserState{u.last_read_s, u.last_crossing_s, u.in_apnea,
                  u.lost,        u.ever_reliable,   u.health, 0, {}};
  }
  last_seen_reads_.clear();
  for (const auto& [user, seen] : state.last_seen_reads)
    last_seen_reads_[user] = seen;
  // Derived data is rebuilt, not restored: the restored records carry no
  // rate summary, so the first post-restore tick re-analyses every user
  // from the restored demux window.
  demux_.import_state(std::move(state.demux));
}

void RealtimePipeline::start_at(double t0) {
  if (started_) return;
  started_ = true;
  start_ = t0;
  now_ = t0;
  next_update_ = t0 + config_.update_period_s;
}

std::size_t RealtimePipeline::import_user(const DemuxState& state) {
  const std::size_t imported = demux_.import_user(state);
  if (imported == 0) return 0;
  double newest = -1.0;
  std::uint64_t user = 0;
  for (const DemuxState::Stream& s : state.streams) {
    user = s.key.user_id;
    for (const TagRead& r : s.reads) newest = std::max(newest, r.time_s);
  }
  auto& us = user_state_[user];
  us.last_read_s = std::max(us.last_read_s, newest);
  return imported;
}

void RealtimePipeline::advance_to(double time_s) {
  if (!started_) return;
  now_ = std::max(now_, time_s);
  while (now_ >= next_update_) {
    update(next_update_);
    next_update_ += config_.update_period_s;
  }
}

void RealtimePipeline::update(double time_s) {
  ++updates_run_;
  if (obs_.hub == nullptr) {
    run_update(time_s);
    return;
  }
  obs_.hub->trace().enter(obs_.trace_stage, time_s, user_state_.size());
  const double mark = obs_.hub->now();
  const std::size_t analyses_before = analyses_run_;
  run_update(time_s);
  obs_.update_seconds->observe(obs_.hub->now() - mark);
  const std::size_t fanned_out = analyses_run_ - analyses_before;
  obs_.fanout->observe(static_cast<double>(fanned_out));
  obs_.tracked->set(static_cast<double>(user_state_.size()));
  const std::size_t tracked = user_state_.size();
  obs_.bytes_per_user->set(
      tracked == 0 ? 0.0
                   : static_cast<double>(footprint_bytes()) /
                         static_cast<double>(tracked));
  obs_.arena_occupancy->set(demux_.arena_occupancy());
  obs_.probe_length->observe(static_cast<double>(registry_max_probe()));
  obs_.hub->trace().exit(obs_.trace_stage, time_s, fanned_out);
}

void RealtimePipeline::summarize(const UserAnalysis& analysis,
                                 double time_s, UserState& state) const {
  RateSummary& summary = state.summary;
  summary.health = analysis.health;
  summary.reliable = analysis.rate.reliable;
  summary.rate_bpm = analysis.rate.rate_bpm;
  summary.emitted_bpm = analysis.rate.instantaneous.empty()
                            ? analysis.rate.rate_bpm
                            : analysis.rate.instantaneous.back().rate_bpm;
  if (!analysis.rate.crossings.empty())
    state.last_crossing_s = analysis.rate.crossings.back().time_s;
  state.coasted_ticks = 0;

  // The apnea amplitude scan, once for the analysis tick and once for
  // every tick the user may coast on. Breath samples ascend in time and
  // so do the recent-window starts, so one pass drops each sample into
  // the newest window that holds it; a suffix max then folds each
  // window into every older (longer) one.
  std::vector<double>& peaks = summary.recent_peaks;
  peaks.assign(coast_ticks_ + 1, 0.0);
  summary.window_peak = 0.0;
  double tick = time_s;
  std::size_t k = 0;
  for (const signal::TimedSample& s : analysis.breath.samples) {
    const double v = std::abs(s.value);
    summary.window_peak = std::max(summary.window_peak, v);
    if (s.time_s < time_s - config_.apnea_silence_s) continue;
    while (k < coast_ticks_ &&
           s.time_s >= (tick + config_.update_period_s) -
                           config_.apnea_silence_s) {
      tick += config_.update_period_s;
      ++k;
    }
    peaks[k] = std::max(peaks[k], v);
  }
  for (std::size_t j = coast_ticks_; j-- > 0;)
    peaks[j] = std::max(peaks[j], peaks[j + 1]);
}

void RealtimePipeline::run_update(double time_s) {
  const double t0 = std::max(start_, time_s - config_.window_s);
  demux_.evict_before(t0 - 1.0);  // keep a small margin beyond the window

  if (time_s - start_ < config_.warmup_s) return;

  const std::vector<std::uint64_t> users = demux_.users();
  const std::size_t n_users = users.size();

  // Phase 1 (serial): decide per user whether this tick needs a
  // re-analysis. Lost users skip analysis as before; with dirty-window
  // tracking enabled, users whose streams saw no new reads since their
  // last analysis coast on its rate summary. Both rules depend only on
  // the data, never on thread count.
  ticks_.assign(n_users, TickSlot{});
  to_analyse_.clear();
  for (std::size_t i = 0; i < n_users; ++i) {
    const std::uint64_t user = users[i];
    UserState& state = user_state_[user];
    TickSlot& tick = ticks_[i];
    tick.lost_now = state.last_read_s >= 0.0 &&
                    time_s - state.last_read_s > config_.signal_loss_s;
    if (tick.lost_now) continue;
    tick.reads_seen = demux_.reads_seen(user);
    tick.analyse = true;
    if (config_.skip_clean_users) {
      const std::uint64_t* seen = last_seen_reads_.find(user);
      if (seen != nullptr && *seen == tick.reads_seen &&
          !state.summary.recent_peaks.empty()) {
        tick.analyse = false;
        ++analyses_skipped_;
      }
    }
    if (tick.analyse) to_analyse_.push_back(i);
  }

  // Phase 2 (parallel): the expensive Fig. 10 re-analysis, fanned out
  // across the pool in batches of kAnalysisBatch users. Each batch runs
  // as ONE BreathMonitor::analyze_users call into its slot's scratch,
  // so its extractions share a transform sweep, and is reduced to rate
  // summaries before the slot takes its next batch. Workers read the
  // demux (const, nobody mutating) and write only their own users'
  // records, which phase 1 already created, so the fan-out is race-free.
  const std::size_t n_chunks =
      (to_analyse_.size() + kAnalysisBatch - 1) / kAnalysisBatch;
  const auto analyse_chunk = [&](std::size_t c, std::size_t slot) {
    AnalysisScratch& scratch = scratch_[slot];
    const std::size_t begin = c * kAnalysisBatch;
    const std::size_t end =
        std::min(begin + kAnalysisBatch, to_analyse_.size());
    scratch.ids.clear();
    for (std::size_t k = begin; k < end; ++k)
      scratch.ids.push_back(users[to_analyse_[k]]);
    scratch.analyses.resize(scratch.ids.size());
    monitor_.analyze_users(demux_, scratch.ids, t0, time_s, &scratch,
                           scratch.analyses);
    for (std::size_t k = 0; k < scratch.ids.size(); ++k)
      summarize(scratch.analyses[k], time_s,
                *user_state_.find(scratch.ids[k]));
    scratch.analyses.clear();
  };
  if (pool_ != nullptr) {
    pool_->run(n_chunks, analyse_chunk);
  } else {
    for (std::size_t c = 0; c < n_chunks; ++c) analyse_chunk(c, 0);
  }
  analyses_run_ += to_analyse_.size();

  // Phase 3 (serial, ascending user id): the event state machine over
  // the rate summaries, in user-id order so the event log is
  // byte-identical to the serial engine's.
  for (std::size_t i = 0; i < n_users; ++i) {
    const std::uint64_t user = users[i];
    UserState& state = user_state_[user];
    RateSummary& summary = state.summary;

    // Signal-loss detection runs even when analysis cannot.
    const bool lost_now = ticks_[i].lost_now;
    if (lost_now && !state.lost) {
      state.lost = true;
      state.health = SignalHealth::Lost;
      emit(PipelineEvent{PipelineEventKind::SignalLost, user, time_s, 0.0,
                         false, SignalHealth::Lost});
    } else if (!lost_now && state.lost) {
      state.lost = false;
      emit(PipelineEvent{PipelineEventKind::SignalRecovered, user, time_s,
                         0.0, false, state.health});
    }
    if (lost_now) {
      // Keep the surfaced summary honest while the user is dark: the
      // stale estimate stays visible but flagged Lost.
      summary.health = SignalHealth::Lost;
      continue;
    }

    if (ticks_[i].analyse)
      last_seen_reads_[user] = ticks_[i].reads_seen;
    else
      ++state.coasted_ticks;
    state.health = summary.health;
    if (summary.reliable) state.ever_reliable = true;

    // Apnea: the user is being read but breathing stopped. Crossing
    // silence alone is not enough — the zero-phase filter rings into a
    // breath hold and can fabricate crossings — so additionally require
    // the *recent* breath-signal amplitude to have collapsed relative to
    // the window's amplitude.
    const bool amplitude_collapsed =
        summary.window_peak > 0.0 &&
        summary.recent_peak(state.coasted_ticks) < 0.3 * summary.window_peak;
    const bool crossing_silent =
        state.last_crossing_s >= 0.0 &&
        time_s - state.last_crossing_s > config_.apnea_silence_s;
    const bool apnea_now =
        state.ever_reliable && (amplitude_collapsed || crossing_silent);
    if (apnea_now && !state.in_apnea) {
      state.in_apnea = true;
      emit(PipelineEvent{PipelineEventKind::ApneaAlert, user, time_s, 0.0,
                         false, summary.health});
    } else if (!apnea_now && state.in_apnea) {
      state.in_apnea = false;
    }

    if (!apnea_now) {
      emit(PipelineEvent{PipelineEventKind::RateUpdate, user, time_s,
                         summary.emitted_bpm,
                         summary.reliable &&
                             summary.health == SignalHealth::Ok,
                         summary.health});
    }
  }
}

std::size_t RealtimePipeline::footprint_bytes() const noexcept {
  std::size_t summaries = 0;
  user_state_.for_each([&](const std::uint64_t&, const UserState& state) {
    summaries += state.summary.recent_peaks.capacity() * sizeof(double);
  });
  return demux_.footprint_bytes() + user_state_.table_bytes() + summaries +
         last_seen_reads_.table_bytes() +
         ticks_.capacity() * sizeof(TickSlot) +
         to_analyse_.capacity() * sizeof(std::size_t);
}

}  // namespace tagbreathe::core
