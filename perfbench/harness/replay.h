// The traced replay: one process pushes a workload's generated stream
// through each layer's public functions, with a span around every call,
// and reports per-layer self times next to the end-to-end run's counts.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "e2e.h"
#include "workload.h"

namespace perfbench {

struct ReplayResult {
  uint64_t attempted = 0;
  std::vector<std::string> problems;
  Metrics metrics;  ///< every per-layer metric of BENCHMARK.json
};

/// `counts` are the end-to-end run's STATS-derived counts (E2eResult).
ReplayResult RunReplay(const Plan& plan, const Metrics& counts,
                       const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
