#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "svc/client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool Ping(int port) {
  auto client = infoleak::svc::Client::Connect("127.0.0.1", port, 2000);
  if (!client.ok()) return false;
  auto reply = client->CallRaw(R"({"verb":"ping"})");
  return reply.ok() && reply->find("\"pong\":true") != std::string::npos;
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s) {
  std::vector<std::string> argv_store{binary, "serve"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  const pid_t parent = getpid();
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Die with the driver, even when it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    for (int fd = 3; fd < 1024; ++fd) close(fd);  // the driver's sockets
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->out_fd_ = fds[0];
  fcntl(server->out_fd_, F_SETFL, O_NONBLOCK);

  static const std::regex kBanner(R"(listening on [0-9.]+:([0-9]+))");
  std::smatch m;
  while (!std::regex_search(server->output_, m, kBanner)) {
    if (SecondsSince(t0) > timeout_s || !server->ReadOutput(0.05)) {
      return Status::DeadlineExceeded("server did not start: " +
                                      server->output_);
    }
  }
  server->port_ = std::atoi(m[1].str().c_str());
  while (!Ping(server->port_)) {
    if (SecondsSince(t0) > timeout_s) {
      return Status::DeadlineExceeded("server did not answer ping");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server->setup_s_ = SecondsSince(t0);
  return server;
}

ServerProcess::~ServerProcess() {
  Kill();
  if (out_fd_ >= 0) close(out_fd_);
}

bool ServerProcess::ReadOutput(double timeout_s) {
  pollfd p{out_fd_, POLLIN, 0};
  if (poll(&p, 1, static_cast<int>(timeout_s * 1000)) <= 0) return true;
  char buf[65536];
  const ssize_t n = read(out_fd_, buf, sizeof buf);
  if (n > 0) output_.append(buf, static_cast<std::size_t>(n));
  return n != 0;
}

long ServerProcess::StatusKb(const std::string& field) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

std::pair<double, double> ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are the
  // 12th and 13th of them (fields 14 and 15 of the line).
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return {-1.0, -1.0};
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = -1;
  double stime = -1;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::atof(field.c_str());
    if (i == 13) stime = std::atof(field.c_str());
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return {utime / hz, stime / hz};
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

DrainReport ServerProcess::Stop(double grace_s) {
  DrainReport report;
  if (pid_ <= 0) return report;
  kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (true) {
    ReadOutput(0.01);
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      report.exited_cleanly = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (SecondsSince(t0) > grace_s) {
      Kill();
      break;
    }
  }
  // The child is gone, so its end of the pipe is closed: read to EOF.
  const Clock::time_point eof_start = Clock::now();
  while (ReadOutput(0.1) && SecondsSince(eof_start) < 2.0) {
  }
  report.output = output_;

  static const std::regex kDrained(
      R"(^drained; served [0-9]+ request\(s\) over [0-9]+ connection\(s\); )"
      R"(shed ([0-9]+), deadline-missed ([0-9]+))");
  const auto line_at = output_.find("drained;");
  const std::string line =
      line_at == std::string::npos
          ? ""
          : output_.substr(line_at, output_.find('\n', line_at) - line_at);
  std::smatch m;
  if (std::regex_search(line, m, kDrained)) {
    report.drained = true;
    report.shed = std::strtoull(m[1].str().c_str(), nullptr, 10);
    report.deadline_missed = std::strtoull(m[2].str().c_str(), nullptr, 10);
  }
  const std::string marker = "--- metrics ---\n";
  if (const auto at = output_.find(marker); at != std::string::npos) {
    const auto begin = at + marker.size();
    report.metrics_json =
        output_.substr(begin, output_.find('\n', begin) - begin);
  }
  return report;
}

}  // namespace perfbench
