// One `infoleak serve` child process: spawned on an ephemeral port, timed
// from spawn to its first successful ping, and stopped with SIGTERM, a
// bounded wait for the drain, then SIGKILL. The child dies with the driver
// (PR_SET_PDEATHSIG), so a killed benchmark leaves no server behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace perfbench {

using infoleak::Result;
using infoleak::Status;

/// What the server printed after SIGTERM.
struct DrainReport {
  bool exited_cleanly = false;  ///< exit status 0 within the grace period
  bool drained = false;         ///< printed its "drained;" summary line
  uint64_t shed = 0;
  uint64_t deadline_missed = 0;
  std::string metrics_json;     ///< the `--stats --stats-format json` dump
  std::string output;           ///< everything it printed

  /// A clean drain: exit 0, a summary line, nothing shed or expired.
  bool clean() const {
    return exited_cleanly && drained && shed == 0 && deadline_missed == 0;
  }
};

class ServerProcess {
 public:
  /// Spawns `binary serve <args...>` (args must include --port 0), reads
  /// the bound port from its banner, and pings until it answers. Fails
  /// (and kills the child) if that takes longer than `timeout_s`.
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Spawn to first successful ping, in seconds.
  double setup_seconds() const { return setup_s_; }

  /// A `/proc/<pid>/status` field in kB (VmHWM, VmRSS); -1 if unreadable.
  long StatusKb(const std::string& field) const;

  /// User and system CPU seconds the server has used so far; {-1, -1} if
  /// unreadable.
  std::pair<double, double> CpuSeconds() const;

  /// SIGTERM, wait up to `grace_s` for the drain, then SIGKILL. Idempotent.
  DrainReport Stop(double grace_s);

 private:
  ServerProcess() = default;
  void Kill();
  /// Reads whatever the child printed, for up to `timeout_s`; false on EOF.
  bool ReadOutput(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double setup_s_ = 0.0;
  std::string output_;
};

}  // namespace perfbench
