// Host-speed calibration for the served-leakage benchmark. On a shared host
// the memory system and the scheduling of this benchmark's CPUs get faster
// or slower from one minute to the next, by as much as half again, whatever
// the program does. So the driver times fixed work that no code under src/
// touches, many times in each run while its load is parked, and scales the
// run's times to a reference host speed. A change to the program moves the
// scaled figures as it moves the raw ones; a change in the host's speed
// moves mainly the raw ones.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Seconds each calibration kernel takes on the reference host. Scaled
/// times read as they would on a host that fast.
inline constexpr double kReferenceKernelS = 0.004;

/// Reads and writes every word of a 32 MiB buffer, more than the last-level
/// cache holds, through a chain of dependent additions: the pace of memory
/// traffic. The buffer persists across calls, so a call after the first
/// allocates no new pages. Returns a value that depends on all of the work,
/// so none of it is optimized away.
inline uint64_t MemoryKernel() {
  thread_local std::vector<uint64_t> buf(std::size_t{1} << 22, 1);
  uint64_t sum = 0;
  for (auto& e : buf) {
    sum += e;
    e = sum;
  }
  return sum;
}

/// Passes one byte back and forth 500 times over a socket pair between
/// this thread and a helper thread: the pace of waking a thread on another
/// CPU, which every request over loopback TCP pays several times. Returns
/// the seconds the round trips took, or a negative value on an I/O error.
inline double WakeupKernelSeconds() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1.0;
  constexpr int kTrips = 500;
  std::thread echo([fd = fds[1]] {
    char b;
    for (int i = 0; i < kTrips; ++i) {
      if (read(fd, &b, 1) != 1 || write(fd, &b, 1) != 1) return;
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  char b = 'x';
  bool ok = true;
  for (int i = 0; i < kTrips && ok; ++i) {
    ok = write(fds[0], &b, 1) == 1 && read(fds[0], &b, 1) == 1;
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  shutdown(fds[0], SHUT_RDWR);  // ends the helper's read if a trip failed
  echo.join();
  close(fds[0]);
  close(fds[1]);
  return ok ? s : -1.0;
}

/// Every calibration of one run.
class SpeedLog {
 public:
  /// One calibration: the mean wall time of three MemoryKernel calls after
  /// one that settles the caches, and one WakeupKernelSeconds run after one
  /// that warms up. Wall time, not thread CPU time, because the guest
  /// kernel leaves time the host takes a CPU away out of thread CPU time
  /// (paravirtual steal accounting), and the benchmark's latencies do
  /// include it.
  void Measure() {
    using Clock = std::chrono::steady_clock;
    constexpr int kReps = 3;
    volatile uint64_t sink = MemoryKernel();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) sink = sink + MemoryKernel();
    memory_s_.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count() / kReps);
    WakeupKernelSeconds();
    const double wakeup = WakeupKernelSeconds();
    if (wakeup > 0) wakeup_s_.push_back(wakeup);
  }

  /// The geometric mean of the two kernels' speeds, each the reference time
  /// over the run's median time: 1 on the reference host, below 1 on a
  /// slower one. A time scales by multiplying with it.
  double Speed() const { return std::sqrt(MemorySpeed() * WakeupSpeed()); }
  double MemorySpeed() const { return Of(memory_s_); }
  double WakeupSpeed() const { return Of(wakeup_s_); }

  std::size_t size() const { return memory_s_.size(); }

 private:
  static double Of(const std::vector<double>& kernel_s) {
    const double median = Median(kernel_s);
    return median > 0 ? kReferenceKernelS / median : 1.0;
  }

  std::vector<double> memory_s_;  ///< wall seconds per MemoryKernel call
  std::vector<double> wakeup_s_;  ///< wall seconds per 500 round trips
};

}  // namespace perfbench
