// tagbreathe_sim — command-line front end to the whole system.
//
//   tagbreathe_sim run <scenario.ini>            simulate + analyse
//   tagbreathe_sim record <scenario.ini> <out.csv>  simulate -> capture file
//   tagbreathe_sim analyze <capture.csv>         analyse a capture
//   tagbreathe_sim stats <capture.csv>           breath-by-breath statistics
//   tagbreathe_sim print-defaults                emit a template scenario.ini
//
// The capture format is the plain CSV of core/replay.hpp, so captures can
// come from this simulator or from a real reader bridge.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.hpp"
#include "core/breath_stats.hpp"
#include "core/monitor.hpp"
#include "core/replay.hpp"
#include "experiments/scenario_io.hpp"

using namespace tagbreathe;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tagbreathe_sim run <scenario.ini>\n"
               "  tagbreathe_sim record <scenario.ini> <out.csv>\n"
               "  tagbreathe_sim analyze <capture.csv>\n"
               "  tagbreathe_sim stats <capture.csv>\n"
               "  tagbreathe_sim print-defaults\n");
  return 2;
}

void print_analyses(const std::vector<core::UserAnalysis>& analyses) {
  common::ConsoleTable table({"user", "rate [bpm]", "reliable", "antenna",
                              "reads", "crossings"});
  for (const auto& a : analyses) {
    table.add_row({std::to_string(a.user_id),
                   common::fmt(a.rate.rate_bpm, 2),
                   a.rate.reliable ? "yes" : "no",
                   std::to_string(a.antenna_used),
                   std::to_string(a.reads_used),
                   std::to_string(a.rate.crossings.size())});
  }
  table.print();
}

int cmd_run(const std::string& ini_path) {
  const auto cfg = experiments::scenario_from_ini_file(ini_path);
  experiments::Scenario scenario(cfg);
  const auto reads = scenario.run();
  std::printf("simulated %.0f s: %zu reads (%.1f/s)\n", cfg.duration_s,
              reads.size(),
              static_cast<double>(reads.size()) / cfg.duration_s);
  core::BreathMonitor monitor;
  auto analyses = monitor.analyze(reads);
  // Contending item tags carry out-of-range user IDs; drop them from the
  // monitoring report.
  std::erase_if(analyses, [&cfg](const core::UserAnalysis& a) {
    return a.user_id < 1 || a.user_id > cfg.users.size();
  });
  print_analyses(analyses);
  // Ground truth comparison where available.
  for (const auto& a : analyses) {
    if (a.user_id >= 1 && a.user_id <= cfg.users.size()) {
      const double truth = scenario.true_rate_bpm(a.user_id - 1);
      std::printf("user %llu: true %.2f bpm, error %.2f bpm\n",
                  static_cast<unsigned long long>(a.user_id), truth,
                  std::abs(a.rate.rate_bpm - truth));
    }
  }
  return 0;
}

int cmd_record(const std::string& ini_path, const std::string& out_path) {
  const auto cfg = experiments::scenario_from_ini_file(ini_path);
  experiments::Scenario scenario(cfg);
  core::ReadRecorder recorder(out_path);
  scenario.reader().run(cfg.duration_s, [&recorder](const core::TagRead& r) {
    recorder.record(r);
  });
  recorder.flush();  // throws if the capture did not reach the file
  std::printf("recorded %zu reads to %s\n", recorder.recorded(),
              out_path.c_str());
  return 0;
}

int cmd_analyze(const std::string& capture_path) {
  const auto reads = core::load_reads_csv(capture_path);
  std::printf("loaded %zu reads from %s\n", reads.size(),
              capture_path.c_str());
  core::BreathMonitor monitor;
  print_analyses(monitor.analyze(reads));
  return 0;
}

int cmd_stats(const std::string& capture_path) {
  const auto reads = core::load_reads_csv(capture_path);
  core::BreathMonitor monitor;
  const auto analyses = monitor.analyze(reads);
  for (const auto& a : analyses) {
    const auto stats = core::analyze_breaths(a.breath.samples, a.rate);
    std::printf("\nuser %llu: %zu breaths\n",
                static_cast<unsigned long long>(a.user_id),
                stats.breaths.size());
    common::ConsoleTable table({"metric", "value"});
    table.add_row({std::string("mean rate [bpm]"),
                   common::fmt(stats.mean_rate_bpm, 2)});
    table.add_row({std::string("interval SD [s]"),
                   common::fmt(stats.interval_sd_s, 3)});
    table.add_row({std::string("interval RMSSD [s]"),
                   common::fmt(stats.interval_rmssd_s, 3)});
    table.add_row({std::string("interval CV"),
                   common::fmt(stats.interval_cv, 3)});
    table.add_row({std::string("mean amplitude [mm]"),
                   common::fmt(stats.mean_amplitude * 1e3, 2)});
    table.add_row({std::string("pattern"),
                   core::is_irregular(stats) ? "irregular" : "regular"});
    table.print();
    const auto pauses = core::detect_pauses(stats);
    for (const auto& p : pauses)
      std::printf("  pause at %.1f s lasting %.1f s\n", p.start_s,
                  p.duration_s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run" && argc == 3) return cmd_run(argv[2]);
    if (cmd == "record" && argc == 4) return cmd_record(argv[2], argv[3]);
    if (cmd == "analyze" && argc == 3) return cmd_analyze(argv[2]);
    if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
    if (cmd == "print-defaults" && argc == 2) {
      std::printf("%s", experiments::scenario_to_ini(
                            experiments::ScenarioConfig{})
                            .c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
