#include "e2e.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>

#include "procs.h"

namespace perfbench {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kStatsPollNs = 1 * kMs;
constexpr int64_t kInjectorStatsNs = 20 * kMs;
/// Saturation window: INJECTs outstanding per injector, and events sent
/// beyond the detector's delivered count. 2048 events are ~10 ms of
/// work at ingest's peak, inside the 20 ms retransmit timeout, and far
/// inside the sequencer window at 1 tick per saturation event.
constexpr int kSaturationWindow = 2048;
constexpr int kBursts = 21;
/// setup_s is the median of this many set-ups; the first cycle's
/// daemons carry the validation pass, the last cycle's the measured run.
constexpr int kSetupCycles = 9;
/// Events of the validation pass: small enough for the DETECTIONS reply,
/// which grows quadratically with the detections it lists.
constexpr size_t kValidationEvents = 3000;
/// A generator sending this late (p99) has measured itself, not the
/// daemons: its events would reach the sequencer past the window.
constexpr double kGeneratorLateLimitUs = kWindowTicks * kTickNs / 1e3;
constexpr int64_t kPhaseTimeoutNs = 60'000 * kMs;

/// Per-event send/reply times. Each injector thread writes only the
/// slots of its own site's events.
struct Timings {
  explicit Timings(size_t n) : send(n, -1), reply(n, -1), ok(n, 0) {}
  std::vector<int64_t> send;
  std::vector<int64_t> reply;
  std::vector<uint8_t> ok;
};

/// One pipelined RPC connection to one injector: sends INJECTs either
/// open-loop at their due times or as fast as a bounded window of
/// outstanding requests allows, and times every reply. Every 20 ms it
/// slips a STATS into the pipeline to sample the link's unacked window.
class InjectorClient {
 public:
  InjectorClient(const Plan& plan, RpcConn* conn, Timings* timings)
      : plan_(plan), conn_(conn), timings_(timings) {}

  /// window == 0: open loop, event i goes out at t0 + due_ns. Otherwise
  /// at most `window` INJECTs are outstanding, and event k goes out only
  /// once k < *delivered + window: the detector's delivered count (the
  /// caller's polls) paces the phase, which bounds both the link backlog
  /// and the skew between two injectors' streams.
  bool Drive(const std::vector<size_t>& indexes, int64_t t0, int window,
             const std::atomic<int64_t>* delivered);

  uint64_t errors = 0;
  int64_t unacked_max = 0;
  int64_t first_send = -1;

 private:
  const Plan& plan_;
  RpcConn* conn_;
  Timings* timings_;
};

bool InjectorClient::Drive(const std::vector<size_t>& indexes, int64_t t0,
                           int window, const std::atomic<int64_t>* delivered) {
  const int fd = conn_->fd();
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  // Back to blocking on every return: Deployment's Call()s expect it.
  struct RestoreFlags {
    int fd;
    int flags;
    ~RestoreFlags() { ::fcntl(fd, F_SETFL, flags); }
  } restore{fd, flags};
  std::string out;
  size_t out_off = 0;
  std::deque<int64_t> fifo;  // event index, or -1 for a STATS
  std::string& in = conn_->rbuf();
  size_t next = 0;
  int inflight = 0;
  int64_t next_stats = NowNs() + kInjectorStatsNs;
  first_send = -1;
  char buf[65536];
  while (next < indexes.size() || !fifo.empty()) {
    const int64_t now = NowNs();
    const auto append = [&](size_t k) {
      out += plan_.InjectLine(plan_.events[k]);
      out += '\n';
      fifo.push_back(static_cast<int64_t>(k));
      timings_->send[k] = now;
      if (first_send < 0) first_send = now;
      ++inflight;
    };
    if (window == 0) {
      while (next < indexes.size() &&
             t0 + plan_.events[indexes[next]].due_ns <= now) {
        append(indexes[next++]);
      }
    } else {
      const int64_t limit = delivered->load() + window;
      while (next < indexes.size() && inflight < window &&
             static_cast<int64_t>(indexes[next]) < limit) {
        append(indexes[next++]);
      }
    }
    if (next < indexes.size() && now >= next_stats) {
      out += "STATS\n";
      fifo.push_back(-1);
      next_stats = now + kInjectorStatsNs;
    }
    while (out_off < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    const int64_t t_read = NowNs();
    size_t start = 0;
    while (true) {
      const size_t nl = in.find('\n', start);
      if (nl == std::string::npos) break;
      if (fifo.empty()) return false;
      const int64_t k = fifo.front();
      fifo.pop_front();
      const bool ok = in.compare(start, 2, "OK") == 0;
      if (k >= 0) {
        timings_->reply[static_cast<size_t>(k)] = t_read;
        timings_->ok[static_cast<size_t>(k)] = ok ? 1 : 0;
        errors += ok ? 0 : 1;
        --inflight;
      } else {
        unacked_max = std::max(
            unacked_max, StatsInt(in.substr(start, nl - start), "unacked"));
      }
      start = nl + 1;
    }
    in.erase(0, start);
    if (next >= indexes.size() && fifo.empty()) break;

    int64_t wait_ns = 50 * kMs;
    if (next < indexes.size()) {
      if (window == 0) {
        wait_ns = t0 + plan_.events[indexes[next]].due_ns - NowNs();
      } else {
        wait_ns = 100'000;  // recheck the delivered frontier
      }
    }
    wait_ns = std::clamp<int64_t>(wait_ns, 0, 50 * kMs);
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(&p, 1, &ts, nullptr);
  }
  return true;
}

struct Sample {
  int64_t t = 0;
  int64_t delivered = 0;
  int64_t fed = 0;
  int64_t detections = 0;
  int64_t pending = 0;
};

Sample PollDetector(RpcConn& conn) {
  const std::string stats = conn.Call("STATS");
  Sample s;
  s.t = NowNs();
  s.delivered = StatsInt(stats, "delivered");
  s.fed = StatsInt(stats, "events_fed");
  s.detections = StatsInt(stats, "detections");
  s.pending = StatsInt(stats, "seq_pending");
  return s;
}

int64_t SelfCpuNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return int64_t{tv.tv_sec} * 1'000'000'000 + int64_t{tv.tv_usec} * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Runs one client per injector site on its own thread (at most two
/// threads besides the caller, which polls the detector).
class Clients {
 public:
  Clients(const Plan& plan, Deployment& dep, Timings* timings) {
    for (auto& conn : dep.injector_rpc) {
      clients_.push_back(
          std::make_unique<InjectorClient>(plan, conn.get(), timings));
    }
  }

  void Start(std::vector<std::vector<size_t>> per_site, int64_t t0,
             int window, const std::atomic<int64_t>* delivered = nullptr) {
    per_site_ = std::move(per_site);
    done_ = 0;
    ok_ = true;
    for (size_t i = 0; i < clients_.size(); ++i) {
      threads_.emplace_back([this, i, t0, window, delivered] {
        ::prctl(PR_SET_TIMERSLACK, 1UL);
        if (!clients_[i]->Drive(per_site_[i], t0, window, delivered)) {
          ok_ = false;
        }
        done_.fetch_add(1);
      });
    }
  }

  bool Finished() const {
    return done_.load() == static_cast<int>(clients_.size());
  }

  bool Join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    return ok_;
  }

  ~Clients() { Join(); }

  int64_t FirstSend() const {
    int64_t first = INT64_MAX;
    for (const auto& c : clients_) {
      if (c->first_send >= 0) first = std::min(first, c->first_send);
    }
    return first;
  }
  uint64_t Errors() const {
    uint64_t n = 0;
    for (const auto& c : clients_) n += c->errors;
    return n;
  }
  int64_t UnackedMax() const {
    int64_t n = 0;
    for (const auto& c : clients_) n = std::max(n, c->unacked_max);
    return n;
  }

 private:
  std::vector<std::unique_ptr<InjectorClient>> clients_;
  std::vector<std::vector<size_t>> per_site_;
  std::vector<std::thread> threads_;
  std::atomic<int> done_{0};
  std::atomic<bool> ok_{true};
};

std::vector<std::vector<size_t>> SplitBySite(const Plan& plan, size_t begin,
                                             size_t end) {
  std::vector<std::vector<size_t>> out(
      static_cast<size_t>(plan.spec->injectors));
  for (size_t i = begin; i < end; ++i) {
    out[plan.events[i].site - 1].push_back(i);
  }
  return out;
}

/// Polls the detector until `done(sample)` or the timeout; false on
/// timeout. Every sample is appended to `samples` when given.
template <typename Done>
bool PollUntil(RpcConn& det, Done done, std::vector<Sample>* samples,
               Sample* last) {
  const int64_t deadline = NowNs() + kPhaseTimeoutNs;
  int64_t next = NowNs();
  while (true) {
    const Sample s = PollDetector(det);
    if (samples != nullptr) samples->push_back(s);
    *last = s;
    if (done(s)) return true;
    if (s.t > deadline || s.delivered < 0) return false;
    next += kStatsPollNs;
    const int64_t sleep = next - NowNs();
    if (sleep > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sleep));
    } else {
      next = NowNs();
    }
  }
}

struct CpuSnapshot {
  int64_t t = 0;
  int64_t self = 0;
  int64_t detector = 0;
  int64_t injectors = 0;
};

CpuSnapshot TakeCpu(const Deployment& dep) {
  CpuSnapshot s;
  s.t = NowNs();
  s.self = SelfCpuNs();
  s.detector = ProcCpuNs(dep.detector->pid());
  for (const auto& injector : dep.injectors) {
    s.injectors += ProcCpuNs(injector->pid());
  }
  return s;
}

void Validate(const Plan& plan, Deployment& dep, E2eResult& result) {
  Plan v = plan;
  const size_t n = std::min(kValidationEvents, plan.saturation_begin);
  v.events.resize(n);
  v.saturation_begin = n;
  result.attempted += n;
  const auto fail = [&](const std::string& why, uint64_t count) {
    result.failed += std::max<uint64_t>(count, 1);
    result.problems.push_back("validation: " + why);
  };

  Timings timings(n);
  {
    // Open loop at the workload's rate, like the measured phase: sent
    // faster, the two injectors' streams could skew past the window.
    Clients clients(v, dep, &timings);
    clients.Start(SplitBySite(v, 0, n), NowNs() + 5 * kMs, 0);
    if (!clients.Join()) return fail("injector connection failed", n);
    if (clients.Errors() > 0) fail("ERR replies", clients.Errors());
  }
  Sample last;
  if (!PollUntil(
          dep.detector_rpc,
          [&](const Sample& s) {
            return s.delivered >= static_cast<int64_t>(n);
          },
          nullptr, &last)) {
    fail("undelivered events", n - static_cast<uint64_t>(last.delivered));
  }
  dep.detector_rpc.Call("FLUSH");
  const std::string stats = dep.detector_rpc.Call("STATS");

  ReferenceDetector reference(v, /*keep_detections=*/true);
  for (const StreamEvent& event : v.events) {
    reference.Feed(reference.MakeEvent(event));
  }
  std::vector<std::string> want = reference.detections();
  std::vector<std::string> got;
  std::istringstream reply(dep.detector_rpc.Call("DETECTIONS"));
  std::string token;
  reply >> token;  // OK
  reply >> token;  // count
  while (reply >> token) got.push_back(token);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  std::vector<std::string> diff;
  std::set_symmetric_difference(want.begin(), want.end(), got.begin(),
                                got.end(), std::back_inserter(diff));
  if (!diff.empty()) {
    fail("detections differ from the reference detector (" +
             std::to_string(got.size()) + " vs " + std::to_string(want.size()) +
             ")",
         diff.size());
  }
  if (StatsInt(stats, "events_fed") != static_cast<int64_t>(n) ||
      StatsInt(stats, "late_arrivals") != 0) {
    fail("detector stats: " + stats, 1);
  }
}

}  // namespace

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

E2eResult RunE2e(const Plan& plan, const E2eOptions& options) {
  E2eResult result;
  const auto fail = [&](const std::string& why, uint64_t count) {
    result.failed += std::max<uint64_t>(count, 1);
    result.problems.push_back(why);
  };
  const size_t total = plan.events.size();
  const size_t n_fixed = plan.saturation_begin;
  const size_t n_sat = total - n_fixed;
  const std::vector<uint32_t> expected = ExpectedDetections(plan);
  std::vector<int64_t> cum(total);
  int64_t running = 0;
  for (size_t i = 0; i < total; ++i) cum[i] = running += expected[i];

  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
    dep = std::make_unique<Deployment>();
    if (!dep->Start(plan, options.sentineld, options.workdir, cycle)) {
      fail("setup: " + dep->error, total);
      dep->Stop();
      return result;
    }
    setups.push_back(dep->setup_s);
    if (cycle == 0) Validate(plan, *dep, result);
    if (cycle + 1 < kSetupCycles) dep->Stop();
  }
  result.attempted += total;

  // --- fixed-rate phase (prelude, warmup, measured, tail) -------------
  Timings timings(total);
  Clients clients(plan, *dep, &timings);
  size_t last_measured = 0;
  for (size_t i = 0; i < n_fixed; ++i) {
    if (plan.events[i].phase == Phase::kMeasured) last_measured = i;
  }
  const int64_t t0 = NowNs() + 20 * kMs;
  clients.Start(SplitBySite(plan, 0, n_fixed), t0, 0);
  std::vector<Sample> samples;
  CpuSnapshot cpu_begin;
  CpuSnapshot cpu_end;
  Sample last;
  const bool fixed_ok = PollUntil(
      dep->detector_rpc,
      [&](const Sample& s) {
        if (cpu_begin.t == 0 && s.t >= t0 + plan.measured_begin_ns) {
          cpu_begin = TakeCpu(*dep);
        }
        if (cpu_end.t == 0 && s.t >= t0 + plan.measured_end_ns) {
          cpu_end = TakeCpu(*dep);
        }
        return clients.Finished() && cpu_end.t != 0 &&
               s.fed > static_cast<int64_t>(last_measured) &&
               s.delivered >= static_cast<int64_t>(n_fixed);
      },
      &samples, &last);
  if (!clients.Join()) fail("injector connection failed", n_fixed);
  if (!fixed_ok) fail("fixed-rate phase timed out", 1);
  const int64_t unacked_fixed = clients.UnackedMax();

  // --- saturation phase ------------------------------------------------
  // Several bursts, each N/kBursts events pipelined as fast as the
  // window allows; a burst's rate is its events over first send → the
  // FLUSH reply that follows the poll showing them all delivered.
  // peak_eps is the median burst, so one burst that settles into a slow
  // pacing does not set the figure.
  std::vector<double> burst_rates;
  uint64_t sat_errors = 0;
  int64_t sat_unacked = 0;
  for (int b = 0; b < kBursts; ++b) {
    const size_t lo = n_fixed + n_sat * static_cast<size_t>(b) / kBursts;
    const size_t hi = n_fixed + n_sat * static_cast<size_t>(b + 1) / kBursts;
    Clients burst(plan, *dep, &timings);
    std::atomic<int64_t> delivered{static_cast<int64_t>(lo)};
    burst.Start(SplitBySite(plan, lo, hi), 0, kSaturationWindow, &delivered);
    Sample done;
    if (!PollUntil(
            dep->detector_rpc,
            [&](const Sample& s) {
              delivered = s.delivered;
              return s.delivered >= static_cast<int64_t>(hi);
            },
            nullptr, &done)) {
      fail("saturation phase timed out", 1);
      break;
    }
    if (!burst.Join()) fail("injector connection failed", hi - lo);
    // FLUSH closes the burst: the engine has then fed every event of it,
    // and the next burst starts with an empty sequencer.
    dep->detector_rpc.Call("FLUSH");
    done.t = NowNs();
    sat_errors += burst.Errors();
    sat_unacked = std::max(sat_unacked, burst.UnackedMax());
    const double seconds =
        static_cast<double>(done.t - burst.FirstSend()) / 1e9;
    burst_rates.push_back(static_cast<double>(hi - lo) / seconds);
  }
  const double peak_eps = Quantile(burst_rates, 0.5);

  // --- FLUSH, memory, and the correctness gate --------------------------
  dep->detector_rpc.Call("FLUSH");
  const std::string det_stats = dep->detector_rpc.Call("STATS");
  std::vector<std::string> inj_stats;
  for (auto& conn : dep->injector_rpc) inj_stats.push_back(conn->Call("STATS"));
  double injector_rss = 0;
  for (const auto& injector : dep->injectors) {
    injector_rss += ProcHwmMb(injector->pid());
  }
  const double detector_rss = ProcHwmMb(dep->detector->pid());

  const uint64_t errors = clients.Errors() + sat_errors;
  if (errors > 0) fail("ERR replies to INJECT", errors);
  int64_t injected = 0;
  int64_t payloads = 0;
  int64_t retransmits = 0;
  int64_t inj_bytes = 0;
  int64_t inj_frames = 0;
  for (const std::string& stats : inj_stats) {
    injected += StatsInt(stats, "injected");
    payloads += StatsInt(stats, "payloads_sent");
    retransmits += StatsInt(stats, "retransmits");
    inj_bytes += StatsInt(stats, "net_bytes_sent");
    inj_frames += StatsInt(stats, "net_frames_sent");
    if (StatsInt(stats, "gave_up") != 0) {
      fail("injector gave up: " + stats, StatsInt(stats, "gave_up"));
    }
  }
  const int64_t n = static_cast<int64_t>(total);
  const int64_t delivered = StatsInt(det_stats, "delivered");
  const int64_t detections = StatsInt(det_stats, "detections");
  if (injected != n) fail("injected " + std::to_string(injected), 1);
  if (delivered != n) fail("undelivered events", std::llabs(n - delivered));
  if (StatsInt(det_stats, "released") != n ||
      StatsInt(det_stats, "events_fed") != n) {
    fail("released/events_fed != delivered: " + det_stats, 1);
  }
  if (StatsInt(det_stats, "late_arrivals") != 0) {
    fail("late arrivals", StatsInt(det_stats, "late_arrivals"));
  }
  if (detections != cum.back()) {
    fail("detections " + std::to_string(detections) + " != expected " +
             std::to_string(cum.back()),
         std::llabs(detections - cum.back()));
  }

  // --- latencies ----------------------------------------------------------
  std::vector<double> ingest_us;
  std::vector<double> late_us;
  std::vector<double> detect_ms;
  std::vector<double> hold_ms;
  size_t fed_at = 0;
  size_t delivered_at = 0;
  int64_t measured = 0;
  for (size_t i = 0; i < n_fixed; ++i) {
    const StreamEvent& e = plan.events[i];
    if (e.phase != Phase::kMeasured) continue;
    ++measured;
    const int64_t due = t0 + e.due_ns;
    late_us.push_back(static_cast<double>(timings.send[i] - due) / 1e3);
    ingest_us.push_back(timings.ok[i] != 0
                            ? static_cast<double>(timings.reply[i] - due) / 1e3
                            : INFINITY);
    while (fed_at < samples.size() &&
           (samples[fed_at].fed < static_cast<int64_t>(i + 1) ||
            samples[fed_at].detections < cum[i])) {
      ++fed_at;
    }
    while (delivered_at < samples.size() &&
           samples[delivered_at].delivered < static_cast<int64_t>(i + 1)) {
      ++delivered_at;
    }
    if (fed_at < samples.size()) {
      detect_ms.push_back(static_cast<double>(samples[fed_at].t - due) / 1e6);
      if (delivered_at < samples.size()) {
        hold_ms.push_back(
            static_cast<double>(samples[fed_at].t - samples[delivered_at].t) /
            1e6);
      }
    } else {
      detect_ms.push_back(INFINITY);
    }
  }
  const double gen_late_p99 = Quantile(late_us, 0.99);
  if (gen_late_p99 > kGeneratorLateLimitUs) {
    fail("generator fell behind: late p99 " + std::to_string(gen_late_p99) +
             " us; the run is invalid, not slow",
         1);
  }
  int64_t pending_max = 0;
  for (const Sample& s : samples) {
    pending_max = std::max(pending_max, s.pending);
  }

  const double per_event = static_cast<double>(std::max<int64_t>(measured, 1));
  const double window_s = static_cast<double>(cpu_end.t - cpu_begin.t) / 1e9;
  Metrics& m = result.metrics;
  m["setup_s"] = {Quantile(setups, 0.5), "s"};
  m["peak_eps"] = {peak_eps, "events/s"};
  m["ingest_p50_us"] = {Quantile(ingest_us, 0.5), "us"};
  m["detect_p50_ms"] = {Quantile(detect_ms, 0.5), "ms"};
  m["detect_p99_ms"] = {Quantile(detect_ms, 0.99), "ms"};
  m["injector_cpu_us_per_event"] = {
      static_cast<double>(cpu_end.injectors - cpu_begin.injectors) / 1e3 /
          per_event,
      "us"};
  m["detector_cpu_us_per_event"] = {
      static_cast<double>(cpu_end.detector - cpu_begin.detector) / 1e3 /
          per_event,
      "us"};
  m["injector_rss_mb"] = {injector_rss, "MB"};
  m["detector_rss_mb"] = {detector_rss, "MB"};

  Metrics& c = result.counts;
  c["samples.ingest"] = {static_cast<double>(ingest_us.size()), "count"};
  c["samples.detect"] = {static_cast<double>(detect_ms.size()), "count"};
  c["samples.setup"] = {static_cast<double>(setups.size()), "count"};
  c["samples.polls"] = {static_cast<double>(samples.size()), "count"};
  c["events"] = {static_cast<double>(n), "count"};
  c["events.saturation"] = {static_cast<double>(n_sat), "count"};
  c["gen.late_p99_us"] = {gen_late_p99, "us"};
  c["gen.cpu_share"] = {
      static_cast<double>(cpu_end.self - cpu_begin.self) / 1e9 / window_s,
      "ratio"};
  c["dist.link.retransmits_per_event"] = {
      static_cast<double>(retransmits) / static_cast<double>(n), "count"};
  c["dist.link.useful_ratio"] = {
      static_cast<double>(delivered) /
          static_cast<double>(std::max<int64_t>(payloads + retransmits, 1)),
      "ratio"};
  c["dist.link.unacked_max"] = {
      static_cast<double>(std::max(unacked_fixed, sat_unacked)),
      "count"};
  c["dist.sequencer.pending_max"] = {static_cast<double>(pending_max), "count"};
  c["dist.sequencer.hold_ms"] = {Quantile(hold_ms, 0.5), "ms"};
  c["dist.sequencer.late_arrivals"] = {
      static_cast<double>(StatsInt(det_stats, "late_arrivals")), "count"};
  c["net.bytes_per_event"] = {
      static_cast<double>(inj_bytes + StatsInt(det_stats, "net_bytes_sent")) /
          static_cast<double>(n),
      "B"};
  c["net.frames_per_event"] = {
      static_cast<double>(inj_frames + StatsInt(det_stats, "net_frames_sent")) /
          static_cast<double>(n),
      "count"};
  c["snoop.detections_per_event"] = {
      static_cast<double>(detections) / static_cast<double>(n), "count"};
  c["ingest_p50_us"] = m["ingest_p50_us"];
  // Not an end-to-end metric: with every CPU taken on fanin_detect, the
  // host's own stalls set this tail, and it varies more from run to run
  // than any bound allows. The traced run reports it, ungated.
  c["ingest_p99_us"] = {Quantile(ingest_us, 0.99), "us"};
  c["cpu_us_per_event"] = {m["injector_cpu_us_per_event"].value +
                               m["detector_cpu_us_per_event"].value,
                           "us"};

  dep->Stop();
  return result;
}

}  // namespace perfbench
