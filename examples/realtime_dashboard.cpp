// Realtime console dashboard — the paper's Fig. 11 user interface in
// ASCII: per-user breathing waveform, live rate, breath-by-breath
// variability, and link health, refreshed as data streams in.
//
// Two users breathe at different (and changing) rates; the display
// redraws every 20 seconds of stream time. The realtime pipeline keeps
// only a rate summary per user, so the dashboard keeps its own trailing
// window of reads and re-analyses it whenever it draws a waveform.
//
// The pipeline is bound to an observability hub; on exit the full
// Prometheus scrape is written to `dashboard_metrics.prom` (first
// argument overrides the path) — the same text a /metrics endpoint
// would serve, so `curl`-style tooling and promtool can consume it.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/breath_stats.hpp"
#include "core/pipeline.hpp"
#include "experiments/scenario.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"

using namespace tagbreathe;

namespace {

void draw(double now, const std::vector<core::TagRead>& window,
          const core::BreathMonitor& monitor) {
  std::printf("\n==== TagBreathe dashboard @ t = %5.1f s ====\n", now);
  // analyze() returns users in ascending id order, so the dashboard rows
  // never depend on registry layout.
  for (const core::UserAnalysis& a : monitor.analyze(window)) {
    // Trailing 30 s of the breath waveform as a sparkline.
    std::vector<double> tail;
    for (const auto& s : a.breath.samples)
      if (s.time_s > now - 30.0) tail.push_back(s.value);
    const auto stats = core::analyze_breaths(a.breath.samples, a.rate);

    std::printf("user %llu  %5.1f bpm %s | antenna %u | %4.0f reads | ",
                static_cast<unsigned long long>(a.user_id), a.rate.rate_bpm,
                a.rate.reliable ? " " : "?", a.antenna_used,
                static_cast<double>(a.reads_used));
    std::printf("CV %.2f %s\n", stats.interval_cv,
                core::is_irregular(stats) ? "(irregular)" : "");
    std::printf("  %s\n", common::sparkline(tail).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("TagBreathe realtime dashboard: 2 users, 2 min\n");
  const std::string metrics_path =
      argc > 1 ? argv[1] : "dashboard_metrics.prom";

  experiments::ScenarioConfig scene;
  scene.duration_s = 120.0;
  scene.distance_m = 3.0;
  scene.seed = 555;
  scene.users.clear();
  {
    experiments::UserSpec steady;
    steady.rate_bpm = 11.0;
    scene.users.push_back(steady);
    experiments::UserSpec shifting;  // breathes faster halfway through
    shifting.schedule = {{0.0, 9.0}, {60.0, 16.0}};
    shifting.side_offset_m = 1.0;
    scene.users.push_back(shifting);
  }
  experiments::Scenario scenario(scene);

  core::PipelineConfig pcfg;
  pcfg.window_s = 45.0;
  core::RealtimePipeline pipeline(pcfg, nullptr);
  obs::Observability hub;
  pipeline.bind_observability(hub);

  const core::BreathMonitor monitor(pcfg.monitor);
  std::vector<core::TagRead> window;
  double next_draw = 20.0;
  scenario.reader().run(scene.duration_s, [&](const core::TagRead& read) {
    pipeline.push(read);
    window.push_back(read);
    if (read.time_s >= next_draw) {
      std::erase_if(window, [&](const core::TagRead& r) {
        return r.time_s < read.time_s - pcfg.window_s;
      });
      draw(read.time_s, window, monitor);
      next_draw += 20.0;
    }
  });

  std::printf("\nfinal state:\n");
  common::ConsoleTable table({"user", "rate [bpm]", "true (final) [bpm]"});
  for (std::uint64_t user = 1; user <= scene.users.size(); ++user) {
    const core::RateSummary* summary = pipeline.rate_summary(user);
    if (summary == nullptr) continue;
    const double truth =
        scenario.subject(user - 1).breathing().schedule().rate_bpm_at(
            scene.duration_s);
    table.add_row({std::to_string(user), common::fmt(summary->rate_bpm, 1),
                   common::fmt(truth, 1)});
  }
  table.print();

  // The scrape a /metrics endpoint would serve.
  const std::string scrape = obs::to_prometheus(hub.snapshot());
  if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
    std::fwrite(scrape.data(), 1, scrape.size(), f);
    std::fclose(f);
    std::printf("\nmetrics scrape written to %s (%zu bytes); sample:\n",
                metrics_path.c_str(), scrape.size());
    // First few series as a teaser; the file has the full export.
    std::size_t shown = 0, pos = 0;
    while (shown < 6 && pos < scrape.size()) {
      const std::size_t eol = scrape.find('\n', pos);
      std::printf("  %s\n", scrape.substr(pos, eol - pos).c_str());
      pos = eol + 1;
      ++shown;
    }
  }
  return 0;
}
