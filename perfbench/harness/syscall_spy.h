// write/fsync timing for one descriptor (see syscall_spy.cc).
#ifndef PERFBENCH_SYSCALL_SPY_H_
#define PERFBENCH_SYSCALL_SPY_H_

#include <cstdint>

namespace perfbench::spy {

/// Starts timing write/fsync/fdatasync on `fd` (-1 stops) and zeroes
/// the totals.
void WatchFd(int fd);
/// Time spent in those calls on the watched fd since WatchFd, in ns.
int64_t SyncNs();
/// fsync + fdatasync calls on the watched fd since WatchFd.
int64_t Fsyncs();

}  // namespace perfbench::spy

#endif  // PERFBENCH_SYSCALL_SPY_H_
