#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

/// Live daemon pids, readable from a signal handler.
std::array<std::atomic<pid_t>, 16> g_children{};

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnFatalSignal(int signo) {
  KillAllChildren();
  _exit(128 + signo);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

int BenchCpu(int slot) {
  // The first CPU goes to the second injector, which only fanin_detect
  // has: interrupts and kernel workers tend to run there, and they made
  // the generator late while durable's fsyncs completed.
  static constexpr size_t kCpuOfSlot[] = {3, 1, 2, 0};
  static const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 4) return -1;
  return cpus[kCpuOfSlot[slot]];
}

void PinSelf(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
}

void InstallCleanupHandlers() {
  struct sigaction action {};
  action.sa_handler = OnFatalSignal;
  sigemptyset(&action.sa_mask);
  for (const int signo : {SIGTERM, SIGINT, SIGHUP}) {
    ::sigaction(signo, &action, nullptr);
  }
  ::signal(SIGPIPE, SIG_IGN);
  std::atexit(KillAllChildren);
}

Daemon::Daemon(std::string binary, std::string dir, std::string name)
    : binary_(std::move(binary)),
      dir_(std::move(dir)),
      name_(std::move(name)) {}

Daemon::~Daemon() { Kill(); }

bool Daemon::Spawn(const std::string& config_body, int cpu) {
  const std::string config = dir_ + "/" + name_ + ".conf";
  // A stale endpoints file would read as instant readiness, a stale WAL
  // as a restart to replay.
  ::unlink((dir_ + "/" + name_ + ".endpoints").c_str());
  ::unlink((dir_ + "/" + name_ + ".wal").c_str());
  {
    std::ofstream out(config, std::ios::trunc);
    out << config_body << "endpoints_file = " << dir_ << "/" << name_
        << ".endpoints\n";
    if (!out) return false;
  }
  const std::string log = dir_ + "/" + name_ + ".log";
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    const char* argv[] = {binary_.c_str(), "--config", config.c_str(), nullptr};
    ::execv(binary_.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  pid_ = pid;
  Register(pid);
  return true;
}

bool Daemon::WaitReady(int timeout_ms) {
  const std::string path = dir_ + "/" + name_ + ".endpoints";
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (NowNs() < deadline) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      std::istringstream lines(ReadFile(path));
      std::string line;
      while (std::getline(lines, line)) {
        if (line.rfind("rpc=", 0) == 0) rpc_ = line.substr(4);
        if (line.rfind("transport=", 0) == 0) transport_ = line.substr(10);
      }
      return !rpc_.empty();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Unregister(pid_);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

bool Daemon::Reap(int timeout_ms) {
  if (pid_ <= 0) return true;
  for (int waited = 0; waited < timeout_ms; ++waited) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Unregister(pid_);
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    SleepMs(1);
  }
  Kill();
  return false;
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  Unregister(pid_);
  pid_ = -1;
}

RpcConn::~RpcConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool RpcConn::Connect(const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, endpoint.substr(0, colon).c_str(), &addr.sin_addr) !=
      1) {
    return false;
  }
  addr.sin_port = htons(static_cast<uint16_t>(
      std::strtol(endpoint.c_str() + colon + 1, nullptr, 10)));
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      return true;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

bool RpcConn::SendAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool RpcConn::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = rbuf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(rbuf_, 0, nl);
      rbuf_.erase(0, nl + 1);
      return true;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    rbuf_.append(buf, static_cast<size_t>(n));
  }
}

std::string RpcConn::Call(const std::string& line) {
  std::string reply;
  if (fd_ < 0 || !SendAll(line + "\n") || !ReadLine(&reply)) return "";
  return reply;
}

int64_t StatsInt(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(stats.c_str() + at + needle.size(), nullptr, 10);
}

int64_t ProcCpuNs(pid_t pid) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised comm: state is field 3, utime 14,
  // stime 15.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  int64_t utime = 0;
  int64_t stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtoll(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoll(field.c_str(), nullptr, 10);
  }
  return (utime + stime) * (1'000'000'000 / ::sysconf(_SC_CLK_TCK));
}

double ProcHwmMb(pid_t pid) {
  std::istringstream lines(
      ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

namespace {

std::string CommonConfig() {
  std::ostringstream out;
  out << "detector_site = 0\n"
      << "rpc_listen = 127.0.0.1:0\n"
      << "local_granularity_ns = " << kTickNs << "\n"
      << "global_granularity_ns = " << kGlobalGranularityNs << "\n"
      << "precision_ns = " << kPrecisionNs << "\n"
      << "heartbeat_ms = " << kHeartbeatMs << "\n";
  return out.str();
}

}  // namespace

std::string DetectorConfig() {
  std::ostringstream out;
  out << "site = 0\nrole = detector\nlisten = 127.0.0.1:0\n"
      << "window_ticks = " << kWindowTicks << "\n"
      << CommonConfig();
  return out.str();
}

std::string InjectorConfig(int site, const std::string& detector_transport,
                           const std::string& wal) {
  std::ostringstream out;
  out << "site = " << site << "\nrole = injector\n"
      << "peer.0 = " << detector_transport << "\n"
      << CommonConfig();
  if (!wal.empty()) out << "wal = " << wal << "\nfsync_every = 1\n";
  return out.str();
}

namespace {

bool SendLines(RpcConn& conn, const std::vector<std::string>& lines,
               std::string* error) {
  std::string batch;
  for (const std::string& line : lines) batch += line + "\n";
  if (conn.SendAll(batch)) return true;
  *error = "setup send failed";
  return false;
}

/// Reads one reply per line sent; false on an ERR or I/O failure.
bool ReadOks(RpcConn& conn, const std::vector<std::string>& lines,
             std::string* error) {
  for (const std::string& line : lines) {
    std::string reply;
    if (!conn.ReadLine(&reply) || reply.rfind("OK", 0) != 0) {
      *error = "setup '" + line + "' -> '" + reply + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool Deployment::Start(const Plan& plan, const std::string& binary,
                       const std::string& dir, int cycle) {
  const std::string tag = "c" + std::to_string(cycle) + "-";
  const int64_t t0 = NowNs();
  detector = std::make_unique<Daemon>(binary, dir, tag + "detector");
  if (!detector->Spawn(DetectorConfig(), BenchCpu(1)) ||
      !detector->WaitReady(10'000)) {
    error = "detector did not start";
    return false;
  }
  for (int i = 1; i <= plan.spec->injectors; ++i) {
    auto injector = std::make_unique<Daemon>(
        binary, dir, tag + "injector" + std::to_string(i));
    const std::string wal =
        plan.spec->wal ? dir + "/" + injector->name() + ".wal" : "";
    if (!injector->Spawn(InjectorConfig(i, detector->transport(), wal),
                         BenchCpu(1 + i))) {
      error = "injector spawn failed";
      return false;
    }
    injectors.push_back(std::move(injector));
  }
  for (auto& injector : injectors) {
    if (!injector->WaitReady(10'000)) {
      error = injector->name() + " did not start";
      return false;
    }
  }
  if (!detector_rpc.Connect(detector->rpc())) {
    error = "detector rpc connect failed";
    return false;
  }
  for (auto& injector : injectors) {
    injector_rpc.push_back(std::make_unique<RpcConn>());
    if (!injector_rpc.back()->Connect(injector->rpc())) {
      error = injector->name() + " rpc connect failed";
      return false;
    }
  }
  std::vector<std::string> regs;
  for (const std::string& type : plan.types) regs.push_back("REGTYPE " + type);
  std::vector<std::string> det_lines = regs;
  for (const auto& [name, expr] : plan.rules) {
    det_lines.push_back("DEFRULE " + name + " " + expr);
  }
  // Everything is sent before any reply is read, so the injectors'
  // REGTYPEs overlap the detector's DEFRULEs.
  for (auto& conn : injector_rpc) {
    if (!SendLines(*conn, regs, &error)) return false;
  }
  if (!SendLines(detector_rpc, det_lines, &error) ||
      !ReadOks(detector_rpc, det_lines, &error)) {
    return false;
  }
  for (auto& conn : injector_rpc) {
    if (!ReadOks(*conn, regs, &error)) return false;
  }
  setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

void Deployment::Stop() {
  for (auto& conn : injector_rpc) conn->Call("SHUTDOWN");
  if (detector_rpc.fd() >= 0) detector_rpc.Call("SHUTDOWN");
  for (auto& injector : injectors) injector->Reap(5'000);
  if (detector) detector->Reap(5'000);
}

}  // namespace perfbench
