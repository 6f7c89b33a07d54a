#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "daemon/hex.h"
#include "dist/codec.h"
#include "dist/sequencer.h"
#include "snoop/detector.h"
#include "snoop/parallel_detector.h"
#include "snoop/parser.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using sentineld::EventPtr;

/// Stream start offset: the prelude's anchors sit more than 2g_g before
/// the first fixed-rate event, so every rule's `;` sees them as earlier.
constexpr int64_t kLeadNs = 5'000'000;
constexpr double kWarmupShare = 0.05;
constexpr double kMeasuredShare = 0.45;
constexpr double kSaturationShare = 0.3;
constexpr int64_t kTailNs = 100'000'000;

/// splitmix64: the whole stream derives from the seed through this, so
/// it is identical across standard libraries.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in (0, 1].
  double Unit() { return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

void Fnv(uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= 0xff;
  h *= 0x100000001b3ULL;
}

}  // namespace

sentineld::TimebaseConfig BenchTimebase() {
  sentineld::TimebaseConfig config;
  config.local_granularity_ns = kTickNs;
  config.global_granularity_ns = kGlobalGranularityNs;
  config.precision_ns = kPrecisionNs;
  return config;
}

// Rates against the saturation seen when they were chosen (4 CPUs):
// ingest 40k of ~120k/s and fanin_detect 20k of ~75k/s. At half of
// saturation ingest's p50 varied too much from run to run. durable runs at
// 1k of ~10k/s: at half saturation its fsync stalls and the spurious
// retransmits they trigger queue INJECTs, and p50/p99 jumped between
// regimes from run to run.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "ingest",
       .injectors = 1,
       .wal = false,
       .rate_eps = 40'000,
       .seed_saturation_eps = 120'000,
       .raised_types = 16,
       .anchor_types = 0,
       .raised_anchors = 0,
       .rules = 4},
      {.name = "durable",
       .injectors = 1,
       .wal = true,
       .rate_eps = 1'000,
       .seed_saturation_eps = 10'000,
       .raised_types = 16,
       .anchor_types = 0,
       .raised_anchors = 0,
       .rules = 4},
      {.name = "fanin_detect",
       .injectors = 2,
       .wal = false,
       .rate_eps = 20'000,
       .seed_saturation_eps = 75'000,
       .raised_types = 100,
       .anchor_types = 50,
       .raised_anchors = 1,
       .rules = 1000},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Plan plan;
  plan.spec = &spec;
  plan.seed = seed;
  SplitMix rng(seed * 0x2545f4914f6cdd1dULL + spec.name.size());

  for (int i = 0; i < spec.raised_types; ++i) {
    plan.types.push_back("T" + std::to_string(i));
  }
  for (int i = 0; i < spec.anchor_types; ++i) {
    plan.types.push_back("K" + std::to_string(i));
  }
  if (spec.anchor_types == 0) {
    // ingest/durable: a few rules over types the stream never raises,
    // so the engine only counts and drops.
    for (int i = 0; i < 4; ++i) plan.types.push_back("Z" + std::to_string(i));
    for (int r = 0; r < spec.rules; ++r) {
      const int x = r % 4;
      plan.rules.emplace_back(
          "R" + std::to_string(r),
          "Z" + std::to_string(x) + " ; (Z" + std::to_string((x + 1) % 4) +
              " or Z" + std::to_string((x + 2) % 4) + ")");
    }
  } else {
    // fanin_detect: each rule is anchored on one start occurrence (a
    // K type raised at most once) with `or` and `;` above it, so every
    // later event completes a fixed number of detections. One
    // constituent comes from each site's half of the types; odd rules
    // nest a third for depth 3.
    const int half = spec.raised_types / 2;
    for (int r = 0; r < spec.rules; ++r) {
      const std::string anchor = "K" + std::to_string(r % spec.anchor_types);
      const std::string x = "T" + std::to_string(rng.Below(half));
      const std::string y = "T" + std::to_string(half + rng.Below(half));
      std::string body = x + " or " + y;
      if (r % 2 == 1) {
        const std::string z = "T" + std::to_string(rng.Below(2 * half));
        body = x + " or (" + y + " or " + z + ")";
      }
      plan.rules.emplace_back("R" + std::to_string(r),
                              anchor + " ; (" + body + ")");
    }
  }

  const auto site_of = [&](uint32_t type) -> uint8_t {
    if (spec.injectors == 1) return 1;
    return type < static_cast<uint32_t>(spec.raised_types / 2) ? 1 : 2;
  };
  int64_t tick = 0;
  const auto next_tick = [&](int64_t at) {
    tick = std::max(tick + 1, at);
    return tick;
  };
  const auto add = [&](int64_t due, int64_t t, uint32_t type, Phase phase) {
    StreamEvent e;
    e.due_ns = due;
    e.tick = t;
    e.type = type;
    e.a = static_cast<int64_t>(rng.Below(1000));
    e.b = static_cast<int64_t>(rng.Below(1'000'000));
    e.site = site_of(type);
    e.phase = phase;
    plan.events.push_back(e);
  };

  for (int k = 0; k < spec.raised_anchors; ++k) {
    StreamEvent e;
    e.due_ns = k;
    e.tick = next_tick(1 + k);
    e.type = static_cast<uint32_t>(spec.raised_types + k);
    e.site = static_cast<uint8_t>(1 + k % spec.injectors);
    e.phase = Phase::kPrelude;
    plan.events.push_back(e);
  }

  const int64_t warmup_ns = static_cast<int64_t>(seconds * kWarmupShare * 1e9);
  const int64_t measured_ns =
      static_cast<int64_t>(seconds * kMeasuredShare * 1e9);
  plan.measured_begin_ns = kLeadNs + warmup_ns;
  plan.measured_end_ns = plan.measured_begin_ns + measured_ns;
  const int64_t end_ns = plan.measured_end_ns + kTailNs;
  const double mean_gap_ns = 1e9 / spec.rate_eps;
  double due = static_cast<double>(kLeadNs);
  while (true) {
    const int64_t due_ns = static_cast<int64_t>(due);
    if (due_ns >= end_ns) break;
    const Phase phase = due_ns < plan.measured_begin_ns ? Phase::kWarmup
                        : due_ns < plan.measured_end_ns ? Phase::kMeasured
                                                        : Phase::kTail;
    add(due_ns, next_tick(due_ns / kTickNs),
        static_cast<uint32_t>(rng.Below(spec.raised_types)), phase);
    due += -std::log(rng.Unit()) * mean_gap_ns;
  }

  // Saturation ticks continue one per event, past a 2g_g gap: in tick
  // terms the stream simply runs faster than any daemon can.
  plan.saturation_begin = plan.events.size();
  const int64_t n = static_cast<int64_t>(spec.seed_saturation_eps *
                                         kSaturationShare * seconds);
  next_tick(tick + 2 * kGlobalGranularityNs / kTickNs);
  for (int64_t i = 0; i < n; ++i) {
    add(-1, next_tick(0), static_cast<uint32_t>(rng.Below(spec.raised_types)),
        Phase::kSaturation);
  }
  return plan;
}

std::string Plan::InjectLine(const StreamEvent& event) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "INJECT %s %lld a=%lld b=%lld",
                types[event.type].c_str(), static_cast<long long>(event.tick),
                static_cast<long long>(event.a),
                static_cast<long long>(event.b));
  return buf;
}

uint64_t Plan::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& type : types) Fnv(h, type);
  for (const auto& [name, expr] : rules) {
    Fnv(h, name);
    Fnv(h, expr);
  }
  for (const StreamEvent& event : events) {
    Fnv(h, InjectLine(event));
    Fnv(h, std::to_string(event.due_ns) + "@" + std::to_string(event.site));
  }
  return h;
}

sentineld::ParameterList EventParams(const StreamEvent& event) {
  sentineld::ParameterList params;
  params.push_back(sentineld::Param("a", sentineld::AttributeValue(event.a)));
  params.push_back(sentineld::Param("b", sentineld::AttributeValue(event.b)));
  return params;
}

ReferenceDetector::ReferenceDetector(const Plan& plan, bool keep_detections)
    : keep_(keep_detections) {
  const sentineld::TimebaseConfig tb = BenchTimebase();
  auto timebase = sentineld::MakeTimebase(
      sentineld::TimebaseKind::kApproxGlobal,
      static_cast<uint32_t>(plan.spec->injectors + 1), tb);
  CHECK(timebase.ok());
  timebase_ = std::move(*timebase);
  for (const std::string& type : plan.types) {
    auto id = registry_.GetOrRegister(type, sentineld::EventClass::kExplicit);
    CHECK(id.ok());
    type_ids_.push_back(*id);
  }
  sentineld::Detector::Options options;
  options.host_site = 0;
  options.timebase = tb;
  options.timebase_kind = sentineld::TimebaseKind::kApproxGlobal;
  engine_ = sentineld::MakeDetectorEngine(&registry_, options);
  sentineld::ParserOptions parser;
  parser.auto_register = true;
  parser.timebase = tb;
  for (const auto& [name, text] : plan.rules) {
    auto expr = sentineld::ParseExpr(text, registry_, parser);
    CHECK(expr.ok());
    const std::string rule = name;
    auto added = engine_->AddRule(name, *expr, [this, rule](const EventPtr& e) {
      ++fired_;
      if (keep_) {
        detections_.push_back(rule + ":" + sentineld::daemon::HexEncode(
                                               sentineld::EncodeEvent(e)));
      }
    });
    CHECK(added.ok());
  }
}

EventPtr ReferenceDetector::MakeEvent(const StreamEvent& event) {
  return sentineld::Event::MakePrimitive(
      type_ids_[event.type], timebase_->StampLocal(event.site, event.tick),
      EventParams(event));
}

uint32_t ReferenceDetector::Feed(const EventPtr& event) {
  const uint64_t before = fired_;
  const sentineld::LocalTicks anchor =
      sentineld::MinAnchorTick(event->timestamp());
  if (anchor > clock_) {
    clock_ = anchor;
    engine_->AdvanceClockTo(anchor);
  }
  engine_->Feed(event);
  return static_cast<uint32_t>(fired_ - before);
}

std::vector<uint32_t> ExpectedDetections(const Plan& plan) {
  ReferenceDetector reference(plan, /*keep_detections=*/false);
  std::vector<uint32_t> out;
  out.reserve(plan.events.size());
  for (const StreamEvent& event : plan.events) {
    out.push_back(reference.Feed(reference.MakeEvent(event)));
  }
  return out;
}

}  // namespace perfbench
