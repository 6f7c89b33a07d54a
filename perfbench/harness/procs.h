// Spawning and talking to real sentineld processes: configs, readiness,
// line-RPC connections, /proc readings, and cleanup on every exit path.
#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

int64_t NowNs();  ///< steady clock

/// SIGKILLs and reaps every daemon still alive. Installed for
/// SIGTERM/SIGINT/SIGHUP and called at exit; daemons also carry
/// PR_SET_PDEATHSIG, so they die with the harness even on SIGKILL.
void KillAllChildren();
void InstallCleanupHandlers();

/// CPU placement: with at least four usable CPUs, slot 0 is this
/// process (generator threads and poller), slot 1 the detector and
/// slots 2-3 the injectors, one CPU each; otherwise -1 (unpinned).
int BenchCpu(int slot);
/// Pins the calling thread; no-op for -1.
void PinSelf(int cpu);

class Daemon {
 public:
  Daemon(std::string binary, std::string dir, std::string name);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes `<dir>/<name>.conf` and fork/execs sentineld on it, pinned
  /// to `cpu` unless it is -1.
  bool Spawn(const std::string& config_body, int cpu);
  /// Polls for the endpoints file (the daemon's readiness signal).
  bool WaitReady(int timeout_ms);
  /// Waits for exit after SHUTDOWN; SIGKILL when it overstays.
  bool Reap(int timeout_ms);
  void Kill();

  pid_t pid() const { return pid_; }
  const std::string& rpc() const { return rpc_; }
  const std::string& transport() const { return transport_; }
  const std::string& name() const { return name_; }

 private:
  std::string binary_;
  std::string dir_;
  std::string name_;
  pid_t pid_ = -1;
  std::string rpc_;
  std::string transport_;
};

/// sentineld config text of the benchmark's detector (site 0) and of
/// injector `site` (WAL at fsync_every = 1 when `wal` is a path).
std::string DetectorConfig();
std::string InjectorConfig(int site, const std::string& detector_transport,
                           const std::string& wal);

/// A blocking line-RPC connection (TCP_NODELAY). The injector client
/// switches it to nonblocking and pipelines on fd() directly.
class RpcConn {
 public:
  RpcConn() = default;
  ~RpcConn();
  RpcConn(const RpcConn&) = delete;
  RpcConn& operator=(const RpcConn&) = delete;

  bool Connect(const std::string& endpoint);
  bool SendAll(const std::string& bytes);
  bool ReadLine(std::string* line);
  std::string Call(const std::string& line);
  int fd() const { return fd_; }
  std::string& rbuf() { return rbuf_; }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

/// "key=value" token of a STATS reply; -1 when absent.
int64_t StatsInt(const std::string& stats, const std::string& key);

/// utime + stime of a process, in ns (USER_HZ resolution).
int64_t ProcCpuNs(pid_t pid);
/// VmHWM of a process, in MB.
double ProcHwmMb(pid_t pid);

/// One setup cycle's daemons: a detector and spec->injectors injectors
/// on loopback TCP, with their RPC connections.
struct Deployment {
  std::unique_ptr<Daemon> detector;
  std::vector<std::unique_ptr<Daemon>> injectors;
  RpcConn detector_rpc;
  std::vector<std::unique_ptr<RpcConn>> injector_rpc;
  double setup_s = 0;
  std::string error;

  /// Spawn all → endpoints present → every REGTYPE/DEFRULE acked;
  /// setup_s times exactly that. False (with `error`) on any failure.
  bool Start(const Plan& plan, const std::string& binary,
             const std::string& dir, int cycle);
  /// SHUTDOWN to every daemon, then reap (SIGKILL fallback).
  void Stop();
};

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
