#include "svc/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string_view>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "svc/queue.h"
#include "util/string_util.h"

namespace infoleak::svc {
namespace {

using Clock = std::chrono::steady_clock;

struct SvcMetrics {
  obs::Gauge& connections;
  obs::Gauge& queue_depth;
  obs::Counter& accepted;
  obs::Counter& shed;
  obs::Counter& frame_errors;
  obs::Histogram& queue_wait;
  obs::Histogram& request_seconds;
};

SvcMetrics& Metrics() {
  auto& reg = obs::MetricsRegistry::Global();
  static SvcMetrics m{
      reg.GetGauge("infoleak_svc_connections", {},
                   "Open client connections"),
      reg.GetGauge("infoleak_svc_queue_depth", {},
                   "Requests waiting in the admission queue"),
      reg.GetCounter("infoleak_svc_accepted_total", {},
                     "Client connections accepted"),
      reg.GetCounter("infoleak_svc_shed_total", {},
                     "Requests shed by admission control (queue full)"),
      reg.GetCounter("infoleak_svc_frame_errors_total", {},
                     "Frames rejected for exceeding the size limit"),
      reg.GetHistogram("infoleak_svc_queue_wait_seconds", {},
                       "Time requests spend in the admission queue"),
      reg.GetHistogram("infoleak_svc_request_seconds", {},
                       "End-to-end request latency (dequeue to response)"),
  };
  return m;
}

obs::Counter& ResponseCounter(const char* result) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_svc_responses_total", {{"result", result}},
      "Responses sent, by outcome class");
}

obs::Counter& DeadlineMissCounter(const char* stage) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_svc_deadline_miss_total", {{"stage", stage}},
      "Requests that outlived their deadline, by where it was caught");
}

/// One client connection. The poll thread owns the fd and `inbuf`; the
/// outbox (`outbuf` + flags) is shared with workers under `mu`.
struct Conn {
  int fd = -1;
  std::string inbuf;
  Clock::time_point last_active;
  bool reject_input = false;  // oversized frame seen; drop further bytes

  std::mutex mu;
  std::string outbuf;
  bool closed = false;
  bool close_after_flush = false;
};

struct Task {
  std::shared_ptr<Conn> conn;
  std::string line;
  Clock::time_point enqueued;
  Clock::time_point deadline;  // Clock::time_point::max() when disabled
};

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

struct Server::Impl {
  LeakageService& service;
  ServerConfig cfg;
  BoundedQueue<Task> queue;

  int listen_fd = -1;
  int wake_r = -1;
  std::atomic<int> wake_w{-1};
  int bound_port = 0;
  bool started = false;

  std::vector<std::thread> workers;
  std::atomic<std::size_t> workers_alive{0};
  bool draining = false;  // poll-thread state
  Clock::time_point drain_started;

  std::map<int, std::shared_ptr<Conn>> conns;

  std::atomic<uint64_t> n_accepted{0}, n_requests{0}, n_shed{0},
      n_deadline{0}, n_frame{0}, n_rejected{0};
  ServerStats stats;

  Impl(LeakageService& svc, ServerConfig config)
      : service(svc), cfg(std::move(config)), queue(cfg.queue_depth) {}

  void Wake(char byte) {
    int fd = wake_w.load(std::memory_order_relaxed);
    if (fd >= 0) {
      [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
  }

  void EnqueueResponse(const std::shared_ptr<Conn>& conn,
                       std::string_view line) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed) return;
      conn->outbuf.append(line);
      conn->outbuf.push_back('\n');
    }
    Wake('w');
  }

  void WorkerLoop() {
    Task task;
    while (queue.Pop(&task)) {
      Metrics().queue_depth.Set(static_cast<double>(queue.size()));
      const Clock::time_point start = Clock::now();
      const double queue_wait =
          std::chrono::duration<double>(start - task.enqueued).count();
      Metrics().queue_wait.Observe(queue_wait);
      // The worker owns this request's observability context: queue wait
      // and wire parsing are charged here, the service fills in the rest,
      // and every admitted request — parse failures and queue expiries
      // included — emits exactly one event before its response is queued.
      obs::RequestContext ctx;
      ctx.set_bytes_in(task.line.size());
      ctx.AddPhaseNanos(obs::Phase::kQueue,
                        static_cast<uint64_t>(queue_wait * 1e9));
      if (task.deadline != Clock::time_point::max()) {
        ctx.set_deadline_nanos(static_cast<uint64_t>(
            std::chrono::duration<double>(task.deadline - task.enqueued)
                .count() *
            1e9));
      }
      std::string response;
      std::string code;
      auto parsed = [&] {
        obs::PhaseTimer parse_phase(&ctx, obs::Phase::kParse);
        return ParseRequest(task.line);
      }();
      if (!parsed.ok()) {
        RequestsCounter("invalid").Inc();
        ctx.set_verb("invalid");
        code = WireCode(parsed.status());
        ctx.set_outcome(code);
        response = StatusResponse("", parsed.status());
      } else if (task.deadline != Clock::time_point::max() &&
                 start > task.deadline) {
        DeadlineMissCounter("queue").Inc();
        n_deadline.fetch_add(1, std::memory_order_relaxed);
        ctx.set_verb(parsed->verb);
        code = "deadline_exceeded";
        ctx.set_outcome(code);
        response = ErrorResponse(parsed->id, "deadline_exceeded",
                                 "request expired while queued");
      } else {
        std::function<bool()> cancel;
        if (task.deadline != Clock::time_point::max()) {
          const Clock::time_point deadline = task.deadline;
          cancel = [deadline] { return Clock::now() > deadline; };
        }
        response = service.Handle(*parsed, cancel, &code, &ctx);
        if (code == "deadline_exceeded") {
          DeadlineMissCounter("eval").Inc();
          n_deadline.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ResponseCounter(code.empty()          ? "ok"
                      : code == "deadline_exceeded" ? "deadline"
                                                    : "error")
          .Inc();
      Metrics().request_seconds.Observe(
          std::chrono::duration<double>(Clock::now() - start).count());
      ctx.set_bytes_out(response.size());
      // Emit before the response can reach the client: once a caller sees
      // its reply, the matching event is already tail-able.
      obs::EventLog::Global().Record(ctx.Finish());
      EnqueueResponse(task.conn, response);
    }
    workers_alive.fetch_sub(1, std::memory_order_acq_rel);
    Wake('w');
  }

  // ----- poll-thread helpers ----------------------------------------------

  void CloseConn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    {
      std::lock_guard<std::mutex> lock(it->second->mu);
      it->second->closed = true;
      it->second->outbuf.clear();
    }
    ::close(fd);
    conns.erase(it);
    Metrics().connections.Set(static_cast<double>(conns.size()));
  }

  void FrameError(const std::shared_ptr<Conn>& conn) {
    n_frame.fetch_add(1, std::memory_order_relaxed);
    Metrics().frame_errors.Inc();
    ResponseCounter("error").Inc();
    EnqueueResponse(conn,
                    ErrorResponse("", "frame_too_large",
                                  "request line exceeds " +
                                      std::to_string(cfg.max_frame_bytes) +
                                      " bytes"));
    conn->inbuf.clear();
    conn->inbuf.shrink_to_fit();
    conn->reject_input = true;
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->close_after_flush = true;
  }

  void Admit(const std::shared_ptr<Conn>& conn, std::string line) {
    if (draining) {
      n_rejected.fetch_add(1, std::memory_order_relaxed);
      ResponseCounter("shutdown").Inc();
      EnqueueResponse(conn, ErrorResponse("", "shutting_down",
                                          "server is draining"));
      return;
    }
    const Clock::time_point now = Clock::now();
    Task task{conn, std::move(line), now,
              cfg.deadline_ms > 0
                  ? now + std::chrono::milliseconds(cfg.deadline_ms)
                  : Clock::time_point::max()};
    if (!queue.TryPush(std::move(task))) {
      n_shed.fetch_add(1, std::memory_order_relaxed);
      Metrics().shed.Inc();
      ResponseCounter("overloaded").Inc();
      EnqueueResponse(conn, ErrorResponse("", "overloaded",
                                          "request queue is full"));
      return;
    }
    n_requests.fetch_add(1, std::memory_order_relaxed);
    Metrics().queue_depth.Set(static_cast<double>(queue.size()));
  }

  /// Splits complete lines out of the connection's read buffer and admits
  /// them. Bounded frames: a line (terminated or not) longer than the
  /// limit poisons the connection.
  void ProcessInput(const std::shared_ptr<Conn>& conn) {
    while (!conn->reject_input) {
      const std::size_t pos = conn->inbuf.find('\n');
      if (pos == std::string::npos) {
        if (conn->inbuf.size() > cfg.max_frame_bytes) FrameError(conn);
        return;
      }
      std::string line = conn->inbuf.substr(0, pos);
      conn->inbuf.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > cfg.max_frame_bytes) {
        FrameError(conn);
        return;
      }
      if (Trim(line).empty()) continue;  // blank keep-alive lines are free
      Admit(conn, std::move(line));
    }
  }

  /// Drains the socket into the read buffer. Returns false when the
  /// connection died (EOF or hard error) and must be closed.
  bool ReadConn(const std::shared_ptr<Conn>& conn) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->last_active = Clock::now();
        if (!conn->reject_input) {
          conn->inbuf.append(buf, static_cast<std::size_t>(n));
          ProcessInput(conn);
        }
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Writes as much of the outbox as the socket accepts. Returns false
  /// when the connection must be closed (peer gone, or flushed after an
  /// intentional close).
  bool FlushConn(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->outbuf.empty()) {
      const ssize_t n = ::send(conn->fd, conn->outbuf.data(),
                               conn->outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbuf.erase(0, static_cast<std::size_t>(n));
        conn->last_active = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // EPIPE / ECONNRESET: client went away mid-response
    }
    return !conn->close_after_flush;
  }

  bool HasPendingOutput(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    return !conn->outbuf.empty() || conn->close_after_flush;
  }

  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or transient error; poll retries
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->last_active = Clock::now();
      conns.emplace(fd, std::move(conn));
      n_accepted.fetch_add(1, std::memory_order_relaxed);
      Metrics().accepted.Inc();
      Metrics().connections.Set(static_cast<double>(conns.size()));
    }
  }

  void StartDrain() {
    if (draining) return;
    draining = true;
    drain_started = Clock::now();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    queue.Close();
  }
};

Server::Server(LeakageService& service, ServerConfig config)
    : impl_(std::make_unique<Impl>(service, std::move(config))) {}

Server::~Server() {
  Impl& s = *impl_;
  s.queue.Close();
  for (auto& w : s.workers) {
    if (w.joinable()) w.join();
  }
  for (auto& [fd, conn] : s.conns) ::close(fd);
  s.conns.clear();
  if (s.listen_fd >= 0) ::close(s.listen_fd);
  if (s.wake_r >= 0) ::close(s.wake_r);
  int w = s.wake_w.exchange(-1);
  if (w >= 0) ::close(w);
}

int Server::port() const { return impl_->bound_port; }

const ServerStats& Server::stats() const { return impl_->stats; }

void Server::RequestShutdown() { impl_->Wake('q'); }

Status Server::Start() {
  Impl& s = *impl_;
  if (s.started) return Status::FailedPrecondition("server already started");
  if (s.cfg.workers == 0) s.cfg.workers = 1;
  if (s.cfg.max_frame_bytes == 0) s.cfg.max_frame_bytes = 1;

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Errno("pipe2");
  }
  s.wake_r = pipefd[0];
  s.wake_w.store(pipefd[1]);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* addrs = nullptr;
  const std::string port_str = std::to_string(s.cfg.port);
  const int rc = ::getaddrinfo(s.cfg.host.c_str(), port_str.c_str(), &hints,
                               &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve host '" + s.cfg.host +
                                   "': " + ::gai_strerror(rc));
  }
  Status bind_status = Status::Internal("no addresses for host");
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    const int fd = ::socket(a->ai_family,
                            a->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            a->ai_protocol);
    if (fd < 0) {
      bind_status = Errno("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, a->ai_addr, a->ai_addrlen) != 0 ||
        ::listen(fd, 128) != 0) {
      bind_status = Errno("bind/listen on port " + port_str);
      ::close(fd);
      continue;
    }
    s.listen_fd = fd;
    bind_status = Status::OK();
    break;
  }
  ::freeaddrinfo(addrs);
  if (!bind_status.ok()) return bind_status;

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
    s.bound_port = ntohs(bound.sin_port);
  }

  s.workers_alive.store(s.cfg.workers);
  s.workers.reserve(s.cfg.workers);
  for (std::size_t i = 0; i < s.cfg.workers; ++i) {
    s.workers.emplace_back([&s] { s.WorkerLoop(); });
  }
  s.started = true;
  return Status::OK();
}

Status Server::Run() {
  Impl& s = *impl_;
  if (!s.started) return Status::FailedPrecondition("call Start() first");

  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    fds.push_back({s.wake_r, POLLIN, 0});
    if (s.listen_fd >= 0) fds.push_back({s.listen_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (auto& [fd, conn] : s.conns) {
      short events = conn->reject_input ? 0 : POLLIN;
      if (s.HasPendingOutput(conn)) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (ready < 0 && errno != EINTR) return Errno("poll");

    // Wake pipe: 'w' = responses pending / worker exited, 'q' = shutdown.
    if (fds[0].revents & POLLIN) {
      char buf[256];
      ssize_t n;
      while ((n = ::read(s.wake_r, buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'q') s.StartDrain();
        }
      }
    }
    if (s.listen_fd >= 0 && fds.size() > 1 && (fds[1].revents & POLLIN)) {
      s.AcceptLoop();
    }

    std::vector<int> to_close;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const auto& conn = polled[i];
      const short revents = fds[conn_base + i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        to_close.push_back(conn->fd);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !conn->reject_input) {
        if (!s.ReadConn(conn)) {
          to_close.push_back(conn->fd);
          continue;
        }
      } else if ((revents & POLLHUP) && conn->reject_input) {
        to_close.push_back(conn->fd);
        continue;
      }
      // Opportunistic flush — responses enqueued since the pollfds were
      // built would otherwise wait a full cycle for POLLOUT.
      if (s.HasPendingOutput(conn) && !s.FlushConn(conn)) {
        to_close.push_back(conn->fd);
      }
    }
    for (int fd : to_close) s.CloseConn(fd);

    // Idle reaper.
    if (s.cfg.idle_timeout_ms > 0) {
      const Clock::time_point now = Clock::now();
      std::vector<int> idle;
      for (auto& [fd, conn] : s.conns) {
        if (now - conn->last_active >
            std::chrono::milliseconds(s.cfg.idle_timeout_ms)) {
          idle.push_back(fd);
        }
      }
      for (int fd : idle) s.CloseConn(fd);
    }

    // Graceful-drain completion: workers done, responses flushed (or the
    // drain grace period expired — a stuck client cannot hold us hostage).
    if (s.draining && s.workers_alive.load(std::memory_order_acquire) == 0) {
      bool pending = false;
      for (auto& [fd, conn] : s.conns) {
        if (s.HasPendingOutput(conn)) {
          pending = true;
          break;
        }
      }
      if (!pending ||
          Clock::now() - s.drain_started > std::chrono::seconds(5)) {
        break;
      }
    }
  }

  std::vector<int> open_fds;
  open_fds.reserve(s.conns.size());
  for (auto& [fd, conn] : s.conns) open_fds.push_back(fd);
  for (int fd : open_fds) s.CloseConn(fd);
  for (auto& w : s.workers) {
    if (w.joinable()) w.join();
  }
  Metrics().queue_depth.Set(0.0);

  s.stats.accepted = s.n_accepted.load();
  s.stats.requests = s.n_requests.load();
  s.stats.shed = s.n_shed.load();
  s.stats.deadline_misses = s.n_deadline.load();
  s.stats.frame_errors = s.n_frame.load();
  s.stats.rejected_draining = s.n_rejected.load();
  return Status::OK();
}

std::string Server::StatsSummary() const {
  const ServerStats& st = impl_->stats;
  return "served " + std::to_string(st.requests) + " request(s) over " +
         std::to_string(st.accepted) + " connection(s); shed " +
         std::to_string(st.shed) + ", deadline-missed " +
         std::to_string(st.deadline_misses) + ", oversized frames " +
         std::to_string(st.frame_errors) + ", rejected while draining " +
         std::to_string(st.rejected_draining);
}

}  // namespace infoleak::svc
