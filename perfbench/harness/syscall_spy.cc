// Times the write(2) and fsync(2) calls an embedded daemon makes on its
// WAL. These definitions take the place of libc's in perfgen: calls pass
// straight to the kernel, and only the descriptor set by WatchFd is
// timed and counted. That is how the traced replay sees the journal's
// write+fsync without instrumenting the daemon.
#include "syscall_spy.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>

namespace perfbench::spy {
namespace {

std::atomic<int> g_fd{-1};
std::atomic<int64_t> g_ns{0};
std::atomic<int64_t> g_fsyncs{0};

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Call>
long Timed(int fd, bool is_sync, Call call) {
  if (fd < 0 || fd != g_fd.load(std::memory_order_relaxed)) return call();
  const int64_t start = Now();
  const long result = call();
  g_ns.fetch_add(Now() - start, std::memory_order_relaxed);
  if (is_sync) g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return result;
}

}  // namespace

void WatchFd(int fd) {
  g_fd = fd;
  g_ns = 0;
  g_fsyncs = 0;
}

int64_t SyncNs() { return g_ns.load(); }
int64_t Fsyncs() { return g_fsyncs.load(); }

}  // namespace perfbench::spy

extern "C" ssize_t write(int fd, const void* buf, size_t count) {
  return perfbench::spy::Timed(fd, false, [&] {
    return syscall(SYS_write, fd, buf, count);
  });
}

extern "C" int fsync(int fd) {
  return static_cast<int>(
      perfbench::spy::Timed(fd, true, [&] { return syscall(SYS_fsync, fd); }));
}

extern "C" int fdatasync(int fd) {
  return static_cast<int>(perfbench::spy::Timed(
      fd, true, [&] { return syscall(SYS_fdatasync, fd); }));
}
