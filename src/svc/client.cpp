#include "svc/client.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace infoleak::svc {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), rxbuf_(std::move(other.rxbuf_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    rxbuf_ = std::move(other.rxbuf_);
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rxbuf_.clear();
}

Result<Client> Client::Connect(const std::string& host, int port,
                               int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + ::gai_strerror(rc));
  }
  Status last = Status::Internal("no addresses for host");
  int fd = -1;
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC, a->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = timeout_ms / 1000;
      tv.tv_usec = (timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
    last = Errno("connect to " + host + ":" + port_str);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) return last;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Result<std::string> Client::CallRaw(const std::string& line) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");

  std::string frame = line;
  frame.push_back('\n');
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("send");
      Close();
      return st;
    }
    sent += static_cast<std::size_t>(n);
  }

  for (;;) {
    const std::size_t pos = rxbuf_.find('\n');
    if (pos != std::string::npos) {
      std::string out = rxbuf_.substr(0, pos);
      rxbuf_.erase(0, pos + 1);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return out;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rxbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Status st = n == 0 ? Status::Internal("server closed the connection")
               : (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? Status::DeadlineExceeded("receive timed out")
                   : Errno("recv");
    Close();
    return st;
  }
}

Result<JsonValue> Client::Call(const JsonValue& request) {
  auto raw = CallRaw(request.Render());
  if (!raw.ok()) return raw.status();
  auto parsed = ParseJson(*raw);
  if (!parsed.ok()) {
    return Status::Corruption("malformed response from server: " +
                              parsed.status().message());
  }
  if (!parsed->GetBool("ok", false)) {
    const std::string code = parsed->GetString("code", "internal");
    const std::string message = parsed->GetString("error", "unknown error");
    if (code == "invalid_argument") return Status::InvalidArgument(message);
    if (code == "not_found") return Status::NotFound(message);
    if (code == "failed_precondition") {
      return Status::FailedPrecondition(message);
    }
    if (code == "resource_exhausted" || code == "overloaded") {
      return Status::ResourceExhausted(message);
    }
    if (code == "deadline_exceeded") return Status::DeadlineExceeded(message);
    return Status::Internal("server error (" + code + "): " + message);
  }
  return std::move(parsed).value();
}

Result<JsonValue> Client::CallVerb(const std::string& verb, JsonValue body) {
  JsonValue req = body.is_object() ? std::move(body) : JsonValue::Object();
  req.Set("verb", JsonValue::Str(verb));
  return Call(req);
}

}  // namespace infoleak::svc
