// Workload definitions and the seeded stream generator: everything a
// run sends is a pure function of (workload, seed, seconds).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "event/event.h"
#include "event/registry.h"
#include "snoop/detector_engine.h"
#include "timebase/config.h"
#include "timebase/timebase.h"

namespace perfbench {

/// Time base shared by every daemon and in-process engine of a run: one
/// local tick is one microsecond of due time, g_g = 1 ms, so the
/// paper's 2g_g concurrency band is 2 ms of due time.
constexpr int64_t kTickNs = 1'000;
constexpr int64_t kGlobalGranularityNs = 1'000'000;
constexpr int64_t kPrecisionNs = 999'000;
/// Sequencer stability window W: 50 ms of due time. It has to cover the
/// arrival skew between two injectors, so late_arrivals stays 0; at
/// 10 ms a host that stalled one injector's CPU made arrivals late.
constexpr int64_t kWindowTicks = 50'000;
constexpr int64_t kHeartbeatMs = 5;

sentineld::TimebaseConfig BenchTimebase();

struct WorkloadSpec {
  std::string name;
  int injectors = 1;        ///< sites 1..injectors, equal shares
  bool wal = false;         ///< injector WAL at fsync_every = 1
  /// Open-loop Poisson rate of the fixed-rate phase (events/s), chosen
  /// once against this workload's saturation on the commit that
  /// introduced the benchmark (see workload.cc). Never measured at run
  /// time.
  double rate_eps = 0;
  /// The rate this workload saturated at when the benchmark was
  /// introduced; sizes the saturation phase to a share of --seconds.
  double seed_saturation_eps = 0;
  int raised_types = 0;     ///< primitive types the stream raises
  int anchor_types = 0;     ///< rule anchors (fanin_detect)
  int raised_anchors = 0;   ///< anchors the prelude raises once each
  int rules = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

enum class Phase : uint8_t {
  kPrelude,     ///< anchor occurrences, raised once before the stream
  kWarmup,      ///< fixed rate, not measured
  kMeasured,    ///< fixed rate, latency and CPU measured
  kTail,        ///< fixed rate, carries the watermark past kMeasured
  kSaturation,  ///< pipelined as fast as replies come back
};

struct StreamEvent {
  int64_t due_ns = 0;   ///< offset from stream start; -1 in saturation
  int64_t tick = 0;     ///< local tick, unique and rising across sites
  uint32_t type = 0;    ///< index into Plan::types
  int64_t a = 0;
  int64_t b = 0;
  uint8_t site = 1;
  Phase phase = Phase::kMeasured;
};

/// One run's generated inputs.
struct Plan {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::vector<std::string> types;  ///< REGTYPE order on every daemon
  std::vector<std::pair<std::string, std::string>> rules;  ///< name, expr
  std::vector<StreamEvent> events;  ///< in tick order
  size_t saturation_begin = 0;      ///< index of the first kSaturation
  int64_t measured_begin_ns = 0;
  int64_t measured_end_ns = 0;

  std::string InjectLine(const StreamEvent& event) const;
  /// FNV-1a over types, rules and every INJECT line with its due time.
  uint64_t Hash() const;
};

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, double seconds);

/// The in-process twin of the detector daemon: same registry order,
/// options and rules. Feed() mirrors SiteDaemon::OnReleased.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(const Plan& plan, bool keep_detections);

  sentineld::EventPtr MakeEvent(const StreamEvent& event);
  /// Feeds one event; returns the detections it completed.
  uint32_t Feed(const sentineld::EventPtr& event);

  /// "rule:hex" of every detection, when kept.
  const std::vector<std::string>& detections() const { return detections_; }

 private:
  sentineld::EventTypeRegistry registry_;
  std::unique_ptr<sentineld::Timebase> timebase_;
  std::unique_ptr<sentineld::DetectorEngine> engine_;
  std::vector<sentineld::EventTypeId> type_ids_;
  std::vector<std::string> detections_;
  bool keep_ = false;
  uint64_t fired_ = 0;
  sentineld::LocalTicks clock_ = 0;
};

/// Detections each event completes, from the reference detector.
std::vector<uint32_t> ExpectedDetections(const Plan& plan);

sentineld::ParameterList EventParams(const StreamEvent& event);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
