// The end-to-end run: real sentineld daemons on loopback TCP, driven by
// this process's open-loop generator, checked against the in-process
// reference detector.
#ifndef PERFBENCH_E2E_H_
#define PERFBENCH_E2E_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct E2eOptions {
  std::string sentineld;  ///< path of the daemon binary
  std::string workdir;    ///< configs, endpoints, WALs, logs
};

struct E2eResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why `failed` is nonzero
  Metrics metrics;                    ///< the end-to-end metrics
  /// Counts for the per-layer table, from polled and final STATS.
  Metrics counts;
};

E2eResult RunE2e(const Plan& plan, const E2eOptions& options);

/// q-quantile (0..1) by nearest rank; sorts `values`.
double Quantile(std::vector<double>& values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_H_
