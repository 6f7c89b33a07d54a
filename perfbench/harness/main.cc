// perfgen: the benchmark's load generator and traced replay.
//
//   perfgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --sentineld <path> --workdir <dir>
//   perfgen --workload <name> --seed <n> --seconds <s> --hash
//
// With --trace 0 it runs the end-to-end measurement and prints the
// end-to-end metrics; with --trace 1 it runs the same end-to-end run for
// its counts, then the traced in-process replay, and prints the
// per-layer metrics. The last stdout line is one JSON object; the exit
// code is 0 only when the correctness gate passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.h"
#include "procs.h"
#include "replay.h"
#include "workload.h"

namespace {

using perfbench::Metrics;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfgen: %s\nusage: perfgen --workload <name> --seed <n> "
               "--seconds <s> (--trace <0|1> --sentineld <path> --workdir "
               "<dir> | --hash)\n",
               why);
  return 2;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintTable(const char* title, const Metrics& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string sentineld;
  std::string workdir;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  bool hash = false;
  perfbench::E2eOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value());
    } else if (arg == "--sentineld") {
      sentineld = value();
    } else if (arg == "--workdir") {
      workdir = value();
    } else if (arg == "--hash") {
      hash = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown --workload");
  if (!(seconds > 0)) return Usage("bad --seconds");
  const perfbench::Plan plan = perfbench::MakePlan(*spec, seed, seconds);
  if (hash) {
    std::printf("%016llx %zu\n", static_cast<unsigned long long>(plan.Hash()),
                plan.events.size());
    return 0;
  }
  if ((trace != 0 && trace != 1) || sentineld.empty() || workdir.empty()) {
    return Usage("need --trace 0|1, --sentineld and --workdir");
  }
  perfbench::InstallCleanupHandlers();
  perfbench::PinSelf(perfbench::BenchCpu(0));
  options.sentineld = sentineld;
  options.workdir = workdir;

  perfbench::E2eResult e2e = perfbench::RunE2e(plan, options);
  for (const std::string& problem : e2e.problems) {
    std::fprintf(stderr, "perfgen: FAILED %s\n", problem.c_str());
  }
  PrintTable("end-to-end", e2e.metrics);
  PrintTable("counts", e2e.counts);
  bool correct = e2e.failed == 0;
  if (trace == 0) {
    PrintJson(correct, e2e.attempted, e2e.failed, e2e.metrics);
    return correct ? 0 : 1;
  }
  perfbench::ReplayResult replay =
      perfbench::RunReplay(plan, e2e.counts, workdir);
  for (const std::string& problem : replay.problems) {
    std::fprintf(stderr, "perfgen: FAILED replay %s\n", problem.c_str());
  }
  PrintTable("per-layer", replay.metrics);
  correct = correct && replay.problems.empty();
  PrintJson(correct, e2e.attempted + replay.attempted,
            e2e.failed + replay.problems.size(), replay.metrics);
  return correct ? 0 : 1;
}
