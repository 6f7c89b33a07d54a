#include "replay.h"

#include <dirent.h>
#include <limits.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>

#include "daemon/config.h"
#include "daemon/daemon.h"
#include "dist/codec.h"
#include "dist/journal.h"
#include "dist/reliable_channel.h"
#include "dist/sequencer.h"
#include "dist/simulation.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "procs.h"
#include "snoop/detector.h"
#include "snoop/parallel_detector.h"
#include "snoop/parser.h"
#include "syscall_spy.h"

namespace perfbench {
namespace {

namespace sd = sentineld;

/// Events replayed per workload: enough for stable means, few enough
/// that `durable`'s per-event fsync keeps the replay to seconds.
constexpr size_t kReplayEvents = 20'000;
/// Events through the WAL-on injector of a workload without the WAL.
constexpr size_t kJournalEvents = 2'000;
constexpr int64_t kMs = 1'000'000;

enum Layer {
  kStamp,
  kMake,
  kAppend,
  kLinkSend,
  kSendFrame,
  kPoll,
  kHandleFrame,
  kOffer,
  kAdvance,
  kFeed,
  kEncode,
  kDecode,
  kNumLayers,
};

/// Spans around calls into the layers. Each span's self time is its
/// duration minus the spans opened inside it; off, a span is just the
/// call, so the traced and untraced replays run the same code.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  template <typename Fn>
  void Span(Layer layer, Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    stack_.push_back({NowNs(), 0});
    fn();
    const int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start;
    self_ns_[layer] += duration - open.child_ns;
    ++calls_[layer];
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  int64_t self_ns(Layer layer) const { return self_ns_[layer]; }
  int64_t calls(Layer layer) const { return calls_[layer]; }
  /// Mean self time per call, in ns.
  double MeanNs(Layer layer) const {
    return calls_[layer] == 0 ? 0.0
                              : static_cast<double>(self_ns_[layer]) /
                                    static_cast<double>(calls_[layer]);
  }

 private:
  struct Open {
    int64_t start;
    int64_t child_ns;
  };
  bool on_;
  std::vector<Open> stack_;
  int64_t self_ns_[kNumLayers] = {};
  int64_t calls_[kNumLayers] = {};
};

/// FrameConduit decorator: a net.send_frame span around every frame a
/// link hands the socket transport.
class TimedConduit : public sd::FrameConduit {
 public:
  TimedConduit(sd::FrameConduit* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void SendFrame(sd::SiteId from, sd::SiteId to,
                 const sd::Frame& frame) override {
    tracer_->Span(kSendFrame, [&] { inner_->SendFrame(from, to, frame); });
  }

 private:
  sd::FrameConduit* inner_;
  Tracer* tracer_;
};

/// One injector site of the layer pipeline: its timer wheel, reactor,
/// socket transport and sending link half.
struct InjectorSite {
  sd::Simulation sim;
  sd::net::EventLoop loop;
  std::unique_ptr<sd::net::SocketTransport> transport;
  std::unique_ptr<TimedConduit> conduit;
  std::unique_ptr<sd::ReliableLink> link;
};

struct PipelineOut {
  int64_t wall_ns = 0;
  int64_t frames_received = 0;
  uint64_t released = 0;
  uint64_t fed = 0;
  uint64_t dropped = 0;
  size_t state_total = 0;
  double add_rule_us = 0;
};

/// The daemons' ingest → detection path rebuilt from the layers' public
/// functions, in one process: what CmdInject does on an injector (stamp,
/// make, link send; the journal is timed apart) and what the detector's
/// reactor does (poll, link, sequencer offer, heartbeat advance, feed).
bool RunPipeline(const Plan& plan, size_t n, Tracer& tr, PipelineOut* out,
                 std::string* problem) {
  const sd::TimebaseConfig tb = BenchTimebase();
  const int sites = plan.spec->injectors;
  sd::EventTypeRegistry registry;
  std::vector<sd::EventTypeId> type_ids;
  for (const std::string& type : plan.types) {
    type_ids.push_back(
        *registry.GetOrRegister(type, sd::EventClass::kExplicit));
  }
  sd::Detector::Options options;
  options.timebase = tb;
  std::unique_ptr<sd::DetectorEngine> engine =
      sd::MakeDetectorEngine(&registry, options);
  sd::ParserOptions parser;
  parser.auto_register = true;
  parser.timebase = tb;
  const int64_t rules_start = NowNs();
  for (const auto& [name, text] : plan.rules) {
    auto expr = sd::ParseExpr(text, registry, parser);
    if (!expr.ok() ||
        !engine->AddRule(name, *expr, [](const sd::EventPtr&) {}).ok()) {
      *problem = "rule " + name + " rejected";
      return false;
    }
  }
  const double rules =
      static_cast<double>(std::max<size_t>(plan.rules.size(), 1));
  out->add_rule_us = static_cast<double>(NowNs() - rules_start) / 1e3 / rules;
  auto timebase = sd::MakeTimebase(sd::TimebaseKind::kApproxGlobal,
                                   static_cast<uint32_t>(sites + 1), tb);
  if (!timebase.ok()) {
    *problem = "timebase";
    return false;
  }

  sd::LocalTicks clock = 0;
  sd::LocalTicks max_anchor = INT64_MIN;
  sd::Sequencer sequencer(kWindowTicks, [&](const sd::EventPtr& event) {
    tr.Span(kFeed, [&] {
      const sd::LocalTicks anchor = sd::MinAnchorTick(event->timestamp());
      if (anchor > clock) {
        clock = anchor;
        engine->AdvanceClockTo(anchor);
      }
      engine->Feed(event);
    });
  });

  sd::Simulation det_sim;
  sd::net::EventLoop det_loop;
  sd::net::TransportConfig det_config;
  det_config.self = 0;
  det_config.listen = "127.0.0.1:0";
  sd::net::SocketTransport det_tx(&det_sim, &det_loop, det_config);
  if (!det_tx.Start().ok()) {
    *problem = "detector transport";
    return false;
  }
  TimedConduit det_conduit(&det_tx, &tr);
  sd::ReliableChannelConfig channel;
  channel.enabled = true;
  std::map<sd::SiteId, std::unique_ptr<sd::ReliableLink>> det_links;
  for (int s = 1; s <= sites; ++s) {
    det_links[static_cast<sd::SiteId>(s)] = std::make_unique<sd::ReliableLink>(
        &det_sim, &det_conduit, static_cast<sd::SiteId>(s), 0, channel,
        [&](const sd::EventPtr& event) {
          max_anchor =
              std::max(max_anchor, sd::MinAnchorTick(event->timestamp()));
          tr.Span(kOffer, [&] { sequencer.Offer(event); });
        });
  }
  det_tx.set_on_frame([&](sd::SiteId peer, const sd::Frame& frame) {
    tr.Span(kHandleFrame, [&] { det_links.at(peer)->HandleFrame(frame); });
  });

  std::vector<std::unique_ptr<InjectorSite>> inj;
  for (int s = 1; s <= sites; ++s) {
    auto site = std::make_unique<InjectorSite>();
    sd::net::TransportConfig config;
    config.self = static_cast<sd::SiteId>(s);
    config.peers[0] = det_tx.bound_endpoint();
    site->transport = std::make_unique<sd::net::SocketTransport>(
        &site->sim, &site->loop, config);
    if (!site->transport->Start().ok()) {
      *problem = "injector transport";
      return false;
    }
    site->conduit = std::make_unique<TimedConduit>(site->transport.get(), &tr);
    site->link = std::make_unique<sd::ReliableLink>(
        &site->sim, site->conduit.get(), static_cast<sd::SiteId>(s), 0,
        channel, [](const sd::EventPtr&) {});
    InjectorSite* raw = site.get();
    site->transport->set_on_frame([&tr, raw](sd::SiteId, const sd::Frame& f) {
      tr.Span(kHandleFrame, [&] { raw->link->HandleFrame(f); });
    });
    // Dials are lazy and drop the frame that starts one; open each
    // connection with a no-op ACK before anything is timed.
    sd::Frame opener;
    opener.kind = sd::Frame::Kind::kAck;
    site->transport->SendFrame(config.self, 0, opener);
    inj.push_back(std::move(site));
  }
  const int64_t connect_deadline = NowNs() + 2'000 * kMs;
  while (det_tx.frames_received() < static_cast<uint64_t>(sites) &&
         NowNs() < connect_deadline) {
    for (auto& site : inj) site->loop.PollOnce(0);
    det_loop.PollOnce(1);
  }
  const uint64_t warm_frames = det_tx.frames_received();

  const int64_t start = NowNs();
  const auto pump = [&](sd::Simulation& sim) {
    const int64_t elapsed = NowNs() - start;
    sim.Run(elapsed);
    sim.AdvanceTo(elapsed);
  };
  int64_t next_heartbeat = 0;
  for (size_t i = 0; i < n; ++i) {
    const StreamEvent& e = plan.events[i];
    InjectorSite& site = *inj[e.site - 1];
    sd::PrimitiveTimestamp stamp;
    tr.Span(kStamp, [&] { stamp = (*timebase)->StampLocal(e.site, e.tick); });
    sd::ParameterList params = EventParams(e);
    sd::EventPtr event;
    tr.Span(kMake, [&] {
      event = sd::Event::MakePrimitive(type_ids[e.type], stamp,
                                       std::move(params));
    });
    tr.Span(kLinkSend, [&] { site.link->Send(event); });
    tr.Span(kPoll, [&] { det_loop.PollOnce(0); });
    tr.Span(kPoll, [&] { site.loop.PollOnce(0); });
    pump(site.sim);
    pump(det_sim);
    if (e.due_ns >= next_heartbeat) {
      // The daemon's heartbeat: every heartbeat_ms of (due) time.
      tr.Span(kAdvance, [&] { sequencer.AdvanceTo(max_anchor); });
      next_heartbeat = e.due_ns + kHeartbeatMs * kMs;
    }
  }
  uint64_t delivered = 0;
  const int64_t drain_deadline = NowNs() + 5'000 * kMs;
  while (NowNs() < drain_deadline) {
    delivered = 0;
    for (const auto& [peer, link] : det_links) delivered += link->delivered();
    if (delivered >= n) break;
    tr.Span(kPoll, [&] { det_loop.PollOnce(0); });
    for (auto& site : inj) {
      tr.Span(kPoll, [&] { site->loop.PollOnce(0); });
      pump(site->sim);
    }
    pump(det_sim);
  }
  tr.Span(kAdvance, [&] { sequencer.Flush(); });
  out->wall_ns = NowNs() - start;
  out->frames_received =
      static_cast<int64_t>(det_tx.frames_received() - warm_frames);
  for (const auto& site : inj) {
    out->frames_received +=
        static_cast<int64_t>(site->transport->frames_received());
  }
  out->released = sequencer.released();
  out->fed = engine->events_fed();
  out->dropped = engine->events_dropped();
  out->state_total = engine->total_state();
  for (auto& site : inj) site->transport->Shutdown();
  det_tx.Shutdown();
  if (delivered != n || out->fed != n) {
    *problem = "pipeline delivered " + std::to_string(delivered) + ", fed " +
               std::to_string(out->fed) + " of " + std::to_string(n);
    return false;
  }
  return true;
}

/// The fd an embedded daemon holds open on `path` (its WAL), or -1.
int FindFd(const std::string& path) {
  char want[PATH_MAX];
  if (::realpath(path.c_str(), want) == nullptr) return -1;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int found = -1;
  while (dirent* entry = ::readdir(dir)) {
    char target[PATH_MAX];
    const std::string link = std::string("/proc/self/fd/") + entry->d_name;
    const ssize_t len = ::readlink(link.c_str(), target, sizeof(target) - 1);
    if (len <= 0) continue;
    target[len] = '\0';
    if (want == std::string(target)) found = std::atoi(entry->d_name);
  }
  ::closedir(dir);
  return found;
}

struct DaemonOut {
  double inject_ns = 0;
  double defrule_us = 0;
  double sync_us = 0;           ///< write+fsync time per fsync
  double fsyncs_per_event = 0;
};

/// Embedded sentineld instances (detector + injectors, real loopback
/// sockets, injector WAL at fsync_every = 1 when `wal`): times
/// SiteDaemon::HandleLine for DEFRULE and INJECT, and the WAL's
/// write+fsync through the syscall spy.
bool RunDaemons(const Plan& plan, size_t n, const std::string& workdir,
                bool wal_on, DaemonOut* out, std::string* problem) {
  namespace dm = sd::daemon;
  auto det_config = dm::ParseDaemonConfig(DetectorConfig());
  if (!det_config.ok()) {
    *problem = "detector config";
    return false;
  }
  dm::SiteDaemon detector(*det_config);
  if (!detector.Start().ok()) {
    *problem = "embedded detector start";
    return false;
  }
  std::vector<std::unique_ptr<dm::SiteDaemon>> injectors;
  std::vector<std::string> wals;
  for (int s = 1; s <= plan.spec->injectors; ++s) {
    const std::string wal =
        wal_on ? workdir + "/replay-injector" + std::to_string(s) + ".wal" : "";
    if (!wal.empty()) ::unlink(wal.c_str());
    auto config = dm::ParseDaemonConfig(
        InjectorConfig(s, detector.transport_endpoint(), wal));
    if (!config.ok()) {
      *problem = "injector config";
      return false;
    }
    injectors.push_back(std::make_unique<dm::SiteDaemon>(*config));
    if (!injectors.back()->Start().ok()) {
      *problem = "embedded injector start";
      return false;
    }
    wals.push_back(wal);
  }
  for (const std::string& type : plan.types) {
    detector.HandleLine("REGTYPE " + type);
    for (auto& injector : injectors) injector->HandleLine("REGTYPE " + type);
  }
  const int64_t rules_start = NowNs();
  for (const auto& [name, expr] : plan.rules) {
    if (detector.HandleLine("DEFRULE " + name + " " + expr).rfind("OK", 0) !=
        0) {
      *problem = "DEFRULE " + name;
      return false;
    }
  }
  out->defrule_us = static_cast<double>(NowNs() - rules_start) / 1e3 /
                    static_cast<double>(std::max<size_t>(plan.rules.size(), 1));

  const auto pump_all = [&] {
    for (auto& injector : injectors) injector->RunOnce(0);
    detector.RunOnce(0);
  };
  const auto delivered = [&] {
    return StatsInt(detector.HandleLine("STATS"), "delivered");
  };
  // Warm each injector's lazy dial with its first event, untimed.
  std::vector<bool> warm(injectors.size(), false);
  size_t first = 0;
  while (first < n && std::count(warm.begin(), warm.end(), false) > 0) {
    const StreamEvent& e = plan.events[first];
    injectors[e.site - 1]->HandleLine(plan.InjectLine(e));
    warm[e.site - 1] = true;
    ++first;
    const int64_t deadline = NowNs() + 2'000 * kMs;
    while (delivered() < static_cast<int64_t>(first) && NowNs() < deadline) {
      pump_all();
    }
  }
  int wal_fd = -1;
  if (wal_on) wal_fd = FindFd(wals.front());
  if (wal_on && wal_fd < 0) {
    *problem = "WAL fd not found";
    return false;
  }
  spy::WatchFd(wal_fd);

  int64_t inject_ns = 0;
  int64_t watched_events = 0;  // the spy watches injector 1's WAL
  for (size_t i = first; i < n; ++i) {
    const StreamEvent& e = plan.events[i];
    watched_events += e.site == 1 ? 1 : 0;
    const std::string line = plan.InjectLine(e);
    dm::SiteDaemon& injector = *injectors[e.site - 1];
    const int64_t t = NowNs();
    const std::string reply = injector.HandleLine(line);
    inject_ns += NowNs() - t;
    if (reply.rfind("OK", 0) != 0) {
      *problem = "INJECT -> " + reply;
      return false;
    }
    pump_all();
  }
  const int64_t sync_ns = spy::SyncNs();
  const int64_t fsyncs = spy::Fsyncs();
  spy::WatchFd(-1);
  const int64_t deadline = NowNs() + 5'000 * kMs;
  while (delivered() < static_cast<int64_t>(n) && NowNs() < deadline) {
    pump_all();
  }
  detector.HandleLine("FLUSH");
  const std::string stats = detector.HandleLine("STATS");
  const double timed = static_cast<double>(std::max<size_t>(n - first, 1));
  out->inject_ns = static_cast<double>(inject_ns) / timed;
  out->fsyncs_per_event =
      static_cast<double>(fsyncs) /
      static_cast<double>(std::max<int64_t>(watched_events, 1));
  out->sync_us = fsyncs == 0 ? 0.0
                             : static_cast<double>(sync_ns) / 1e3 /
                                   static_cast<double>(fsyncs);
  for (const std::string& wal : wals) {
    if (!wal.empty()) ::unlink(wal.c_str());
  }
  if (StatsInt(stats, "events_fed") != static_cast<int64_t>(n)) {
    *problem = "embedded detector: " + stats;
    return false;
  }
  return true;
}

}  // namespace

ReplayResult RunReplay(const Plan& plan, const Metrics& counts,
                       const std::string& workdir) {
  ReplayResult result;
  const size_t n = std::min(kReplayEvents, plan.saturation_begin);
  result.attempted = 3 * n;
  const auto count = [&](const std::string& name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second.value;
  };

  DaemonOut daemon;
  std::string problem;
  if (!RunDaemons(plan, n, workdir, plan.spec->wal, &daemon, &problem)) {
    result.problems.push_back(problem);
  }
  // Every workload reports the journal layer: without the WAL, the
  // stream's first events go once more through a WAL-on injector.
  DaemonOut journal = daemon;
  if (!plan.spec->wal &&
      !RunDaemons(plan, std::min(n, kJournalEvents), workdir, true, &journal,
                  &problem)) {
    result.problems.push_back(problem);
  }
  Tracer untraced(false);
  PipelineOut plain;
  if (!RunPipeline(plan, n, untraced, &plain, &problem)) {
    result.problems.push_back(problem);
  }
  Tracer tr(true);
  PipelineOut traced;
  if (!RunPipeline(plan, n, tr, &traced, &problem)) {
    result.problems.push_back(problem);
  }

  // Codec and journal append, apart from the pipeline (the codec runs
  // inside send_frame and poll there).
  ReferenceDetector reference(plan, /*keep_detections=*/false);
  sd::Journal wal(1);
  double bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const sd::EventPtr event = reference.MakeEvent(plan.events[i]);
    std::string encoded;
    tr.Span(kEncode, [&] { encoded = sd::EncodeEvent(event); });
    tr.Span(kDecode, [&] { (void)sd::DecodeEvent(encoded); });
    tr.Span(kAppend, [&] { wal.AppendOutbound(0, event); });
    bytes += static_cast<double>(encoded.size());
  }

  const double per_event = static_cast<double>(std::max<size_t>(n, 1));
  const auto per_event_ns = [&](Layer layer) {
    return static_cast<double>(tr.self_ns(layer)) / per_event;
  };
  // The journal is on this workload's path only with its WAL on.
  const double journal_ns =
      plan.spec->wal ? per_event_ns(kAppend) +
                           journal.sync_us * 1e3 * journal.fsyncs_per_event
                     : 0.0;
  const double inject_children =
      per_event_ns(kStamp) + per_event_ns(kMake) + journal_ns +
      per_event_ns(kLinkSend) +
      per_event_ns(kSendFrame) * static_cast<double>(tr.calls(kLinkSend)) /
          static_cast<double>(std::max<int64_t>(tr.calls(kSendFrame), 1));
  const double inject_self = daemon.inject_ns - inject_children;
  double layers_ns = inject_self + journal_ns;
  for (const Layer layer : {kStamp, kMake, kLinkSend, kSendFrame, kPoll,
                            kHandleFrame, kOffer, kAdvance, kFeed}) {
    layers_ns += per_event_ns(layer);
  }

  Metrics& m = result.metrics;
  m["daemon.inject_ns"] = {daemon.inject_ns, "ns"};
  m["daemon.inject_self_ns"] = {inject_self, "ns"};
  m["daemon.rpc_queue_us"] = {count("ingest_p50_us") - daemon.inject_ns / 1e3,
                              "us"};
  m["daemon.defrule_us"] = {daemon.defrule_us, "us"};
  m["timebase.stamp_ns"] = {tr.MeanNs(kStamp), "ns"};
  m["event.make_primitive_ns"] = {tr.MeanNs(kMake), "ns"};
  m["dist.codec.encode_ns"] = {tr.MeanNs(kEncode), "ns"};
  m["dist.codec.decode_ns"] = {tr.MeanNs(kDecode), "ns"};
  m["dist.codec.bytes_per_event"] = {bytes / per_event, "B"};
  m["dist.journal.append_ns"] = {tr.MeanNs(kAppend), "ns"};
  m["dist.journal.sync_us"] = {journal.sync_us, "us"};
  m["dist.journal.fsyncs_per_event"] = {journal.fsyncs_per_event, "count"};
  m["net.send_frame_ns"] = {tr.MeanNs(kSendFrame), "ns"};
  m["net.poll_ns"] = {static_cast<double>(tr.self_ns(kPoll)) /
                          static_cast<double>(
                              std::max<int64_t>(traced.frames_received, 1)),
                      "ns"};
  m["net.bytes_per_event"] = {count("net.bytes_per_event"), "B"};
  m["net.frames_per_event"] = {count("net.frames_per_event"), "count"};
  m["dist.link.send_ns"] = {tr.MeanNs(kLinkSend), "ns"};
  m["dist.link.handle_frame_ns"] = {tr.MeanNs(kHandleFrame), "ns"};
  m["dist.link.retransmits_per_event"] = {
      count("dist.link.retransmits_per_event"), "count"};
  m["dist.link.useful_ratio"] = {count("dist.link.useful_ratio"), "ratio"};
  m["dist.link.unacked_max"] = {count("dist.link.unacked_max"), "count"};
  m["dist.sequencer.offer_ns"] = {tr.MeanNs(kOffer), "ns"};
  m["dist.sequencer.advance_ns"] = {
      static_cast<double>(tr.self_ns(kAdvance)) /
          static_cast<double>(std::max<uint64_t>(traced.released, 1)),
      "ns"};
  m["dist.sequencer.pending_max"] = {count("dist.sequencer.pending_max"),
                                     "count"};
  m["dist.sequencer.hold_ms"] = {count("dist.sequencer.hold_ms"), "ms"};
  m["dist.sequencer.late_arrivals"] = {count("dist.sequencer.late_arrivals"),
                                       "count"};
  m["snoop.feed_ns"] = {tr.MeanNs(kFeed), "ns"};
  m["snoop.add_rule_us"] = {traced.add_rule_us, "us"};
  m["snoop.detections_per_event"] = {count("snoop.detections_per_event"),
                                     "count"};
  m["snoop.dispatch_useful_ratio"] = {
      1.0 - static_cast<double>(traced.dropped) /
                static_cast<double>(std::max<uint64_t>(traced.fed, 1)),
      "ratio"};
  m["snoop.state_total"] = {static_cast<double>(traced.state_total), "count"};
  m["gen.late_p99_us"] = {count("gen.late_p99_us"), "us"};
  m["gen.cpu_share"] = {count("gen.cpu_share"), "ratio"};
  m["ingest_p99_us"] = {count("ingest_p99_us"), "us"};
  m["trace.overhead_ratio"] = {
      static_cast<double>(traced.wall_ns) /
          static_cast<double>(std::max<int64_t>(plain.wall_ns, 1)),
      "ratio"};
  m["trace.reconcile_ratio"] = {
      layers_ns / 1e3 / std::max(count("cpu_us_per_event"), 1e-9), "ratio"};
  return result;
}

}  // namespace perfbench
