// tb_bench: runs one tag-to-subscriber workload and prints every metric
// by name with unit and sample count, then one JSON result line.
//
//   tb_bench --workload ward_scale --seed 1 --seconds 10 --trace 0
//            [--work-dir DIR]
//
// Exit codes: 0 all correctness checks passed, 1 a check failed (the
// result line says "correct": false), 2 usage or run error (no result).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds >= 1.0 && args.seconds <= 120.0;
}

/// Event-log determinism across invocations: the hash of one
/// (workload, seed, seconds) must never change. Returns false when an
/// earlier run recorded a different hash.
bool check_hash_ledger(const std::string& path, const std::string& key,
                       std::uint64_t hash, std::uint64_t& recorded) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k;
    std::uint64_t h = 0;
    if (fields >> k >> std::hex >> h && k == key) {
      recorded = h;
      return h == hash;
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << ' ' << std::hex << hash << '\n';
  recorded = hash;
  return true;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_metric(const perfbench::Metric& m) {
  std::printf("  %-36s %16s %-6s n=%zu%s%s\n", m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.samples,
              m.note.empty() ? "" : "  ", m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  perfbench::RunResult result;
  try {
    const perfbench::Workload workload =
        perfbench::make_workload(args.workload, args.seed, args.seconds);
    perfbench::RunOptions options;
    options.seconds = args.seconds;
    options.trace = args.trace;
    options.work_dir = args.work_dir;
    const unsigned cores = std::thread::hardware_concurrency();
    options.cores = cores == 0 ? 1 : cores;
    result = perfbench::run_workload(workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tb_bench: %s\n", e.what());
    return 2;
  }

  char key[128];
  std::snprintf(key, sizeof(key), "%s/seed=%llu/seconds=%g",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds);
  std::uint64_t recorded = 0;
  if (!check_hash_ledger(args.work_dir + "/event_log_hashes.txt", key,
                         result.event_log_hash, recorded)) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "event-log hash %016llx differs from %016llx recorded "
                  "for the same seed",
                  static_cast<unsigned long long>(result.event_log_hash),
                  static_cast<unsigned long long>(recorded));
    result.failures.push_back(msg);
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("event-log hash %016llx\n",
              static_cast<unsigned long long>(result.event_log_hash));
  std::printf("end-to-end%s:\n", args.trace ? " (traced half)" : "");
  for (const perfbench::Metric& m : result.end_to_end) print_metric(m);
  if (args.trace) {
    std::printf("per-layer:\n");
    for (const perfbench::Metric& m : result.per_layer) print_metric(m);
    std::printf("latency attribution (rows + residual = end-to-end):\n");
    for (const std::string& line : result.table)
      std::printf("  %s\n", line.c_str());
  }
  for (const std::string& f : result.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  const bool correct = result.failures.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
