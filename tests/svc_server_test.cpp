#include "svc/server.h"

#include <gtest/gtest.h>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "core/record_io.h"
#include "svc/client.h"

namespace infoleak::svc {
namespace {

constexpr const char* kDbCsv =
    "record,label,value,confidence\n"
    "0,N,Alice,1\n0,P,123,1\n"
    "1,N,Alice,1\n1,C,999,1\n"
    "2,N,Bob,1\n2,P,987,1\n";

constexpr const char* kReference =
    "{<N, Alice, 1>, <P, 123, 1>, <C, 999, 1>, <Z, 111, 1>}";

/// One running server on an ephemeral port, torn down via graceful drain.
class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config = {}) {
    auto db = LoadDatabaseCsv(kDbCsv);
    EXPECT_TRUE(db.ok());
    service_ = std::make_unique<LeakageService>(
        RecordStore::FromDatabase(*db));
    config.port = 0;
    server_ = std::make_unique<Server>(*service_, config);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    runner_ = std::thread([this] { run_result_ = server_->Run(); });
  }

  ~ServerFixture() { Shutdown(); }

  void Shutdown() {
    if (runner_.joinable()) {
      server_->RequestShutdown();
      runner_.join();
      EXPECT_TRUE(run_result_.ok()) << run_result_.ToString();
    }
  }

  int port() const { return server_->port(); }
  Server& server() { return *server_; }

  Client MustConnect(int timeout_ms = 10000) {
    auto client = Client::Connect("127.0.0.1", port(), timeout_ms);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

 private:
  std::unique_ptr<LeakageService> service_;
  std::unique_ptr<Server> server_;
  std::thread runner_;
  Status run_result_;
};

/// Raw socket for protocol-abuse tests the Client refuses to produce.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void Send(std::string_view bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until '\n' (stripped) or EOF/timeout (empty).
  std::string ReadLine() {
    std::string line;
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return std::string();
  }

 private:
  int fd_ = -1;
};

TEST(ServerTest, AnswersBitIdenticalToOfflineApiUnderConcurrency) {
  auto db = LoadDatabaseCsv(kDbCsv);
  ASSERT_TRUE(db.ok());
  auto reference = ParseRecord(kReference);
  ASSERT_TRUE(reference.ok());
  auto weights = WeightModel::Parse("");
  ASSERT_TRUE(weights.ok());
  AutoLeakage engine;
  std::ptrdiff_t argmax = -1;
  auto expected_set = SetLeakage(*db, *reference, *weights, engine,
                                       &argmax);
  ASSERT_TRUE(expected_set.ok());
  auto expected_rec = engine.RecordLeakage((*db)[0], *reference, *weights);
  ASSERT_TRUE(expected_rec.ok());

  ServerFixture fixture;
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&] {
      Client client = fixture.MustConnect();
      for (int i = 0; i < 25; ++i) {
        JsonValue set_req = JsonValue::Object();
        set_req.Set("reference", JsonValue::Str(kReference));
        auto set = client.CallVerb("set-leak", std::move(set_req));
        ASSERT_TRUE(set.ok()) << set.status().ToString();
        ASSERT_EQ(set->GetNumber("leakage", -1), *expected_set);
        ASSERT_EQ(set->GetNumber("argmax", -2), static_cast<double>(argmax));

        JsonValue leak_req = JsonValue::Object();
        leak_req.Set("reference", JsonValue::Str(kReference));
        leak_req.Set("record_id", JsonValue::Number(0));
        auto leak = client.CallVerb("leak", std::move(leak_req));
        ASSERT_TRUE(leak.ok()) << leak.status().ToString();
        ASSERT_EQ(leak->GetNumber("leakage", -1), *expected_rec);
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ServerTest, PipelinedRequestsAllAnswered) {
  ServerFixture fixture;
  RawConn conn(fixture.port());
  // Three requests in one write; with several workers the responses may
  // interleave, but each carries its id, so all three must come back.
  conn.Send(
      "{\"verb\":\"ping\",\"id\":1}\n"
      "{\"verb\":\"stats\",\"id\":2}\n"
      "{\"verb\":\"ping\",\"id\":3}\n");
  std::vector<double> ids;
  for (int i = 0; i < 3; ++i) {
    auto response = ParseJson(conn.ReadLine());
    ASSERT_TRUE(response.ok());
    ids.push_back(response->GetNumber("id", -1));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<double>{1, 2, 3}));
}

TEST(ServerTest, TruncatedLineAcrossWritesIsOneFrame) {
  ServerFixture fixture;
  RawConn conn(fixture.port());
  conn.Send("{\"verb\":\"pi");
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  conn.Send("ng\",\"id\":9}\n");
  auto response = ParseJson(conn.ReadLine());
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->GetBool("pong", false));
  EXPECT_DOUBLE_EQ(response->GetNumber("id", -1), 9.0);
}

TEST(ServerTest, InvalidJsonGetsErrorResponseNotDisconnect) {
  ServerFixture fixture;
  RawConn conn(fixture.port());
  conn.Send("this is not json\n");
  auto response = ParseJson(conn.ReadLine());
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->GetBool("ok", true));
  EXPECT_EQ(response->GetString("code"), "invalid_argument");
  // The connection survives the bad frame.
  conn.Send("{\"verb\":\"ping\"}\n");
  auto next = ParseJson(conn.ReadLine());
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->GetBool("pong", false));
}

// `stats` counts a line that does not parse as "invalid", and a parsed
// request whose verb is spelled "invalid" as "other", like any verb the
// service does not dispatch.
TEST(ServerTest, StatsCountsUnparseableLinesAsInvalid) {
  ServerFixture fixture;
  RawConn conn(fixture.port());
  auto requests = [&] {
    conn.Send("{\"verb\":\"stats\"}\n");
    auto stats = ParseJson(conn.ReadLine());
    EXPECT_TRUE(stats.ok());
    const JsonValue* counts = stats.ok() ? stats->Find("requests") : nullptr;
    EXPECT_NE(counts, nullptr);
    return counts == nullptr ? JsonValue::Object() : *counts;
  };
  const JsonValue before = requests();
  conn.Send("this is not json\n");
  ASSERT_TRUE(ParseJson(conn.ReadLine()).ok());
  conn.Send("{\"verb\":\"invalid\"}\n");
  ASSERT_TRUE(ParseJson(conn.ReadLine()).ok());
  const JsonValue after = requests();
  EXPECT_EQ(after.GetNumber("invalid", -1),
            before.GetNumber("invalid", -1) + 1.0);
  EXPECT_EQ(after.GetNumber("other", -1), before.GetNumber("other", -1) + 1.0);
}

TEST(ServerTest, UnknownVerbIsCleanError) {
  ServerFixture fixture;
  Client client = fixture.MustConnect();
  JsonValue req = JsonValue::Object();
  req.Set("verb", JsonValue::Str("transmogrify"));
  auto response = client.Call(req);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument())
      << response.status().ToString();
}

TEST(ServerTest, OversizedFrameIsRejectedAndConnectionClosed) {
  ServerConfig config;
  config.max_frame_bytes = 256;
  ServerFixture fixture(config);
  RawConn conn(fixture.port());
  std::string huge = "{\"verb\":\"ping\",\"pad\":\"";
  huge += std::string(1024, 'x');
  huge += "\"}\n";
  conn.Send(huge);
  auto response = ParseJson(conn.ReadLine());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("code"), "frame_too_large");
  // Server closes after flushing the error.
  EXPECT_EQ(conn.ReadLine(), "");
  fixture.Shutdown();
  EXPECT_GE(fixture.server().stats().frame_errors, 1u);
}

TEST(ServerTest, OversizedFrameWithoutNewlineIsCaughtEarly) {
  ServerConfig config;
  config.max_frame_bytes = 128;
  ServerFixture fixture(config);
  RawConn conn(fixture.port());
  // No terminator at all: the server must not buffer forever.
  conn.Send(std::string(4096, 'y'));
  auto response = ParseJson(conn.ReadLine());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("code"), "frame_too_large");
}

TEST(ServerTest, ClientDisconnectMidResponseDoesNotCrashServer) {
  ServerFixture fixture;
  for (int i = 0; i < 10; ++i) {
    RawConn conn(fixture.port());
    conn.Send("{\"verb\":\"stats\"}\n{\"verb\":\"ping\"}\n");
    conn.Close();  // vanish before the responses flush
  }
  // The server is still healthy for a well-behaved client.
  Client client = fixture.MustConnect();
  auto response = client.CallVerb("ping", JsonValue::Object());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
}

TEST(ServerTest, QueueOverflowShedsWithOverloaded) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  config.deadline_ms = 0;  // irrelevant here
  ServerFixture fixture(config);

  // Occupy the single worker, then flood: with the worker busy and depth 1,
  // at least one of the burst must be shed, and the acceptor keeps serving.
  Client blocker = fixture.MustConnect();
  std::thread burner([&] {
    JsonValue req = JsonValue::Object();
    req.Set("burn_ms", JsonValue::Number(600));
    auto r = blocker.CallVerb("ping", std::move(req));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RawConn flood(fixture.port());
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "{\"verb\":\"ping\"}\n";
  flood.Send(burst);
  int overloaded = 0, okay = 0;
  for (int i = 0; i < 8; ++i) {
    auto response = ParseJson(flood.ReadLine());
    ASSERT_TRUE(response.ok());
    if (response->GetString("code") == "overloaded") {
      ++overloaded;
    } else if (response->GetBool("ok", false)) {
      ++okay;
    }
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(overloaded + okay, 8);
  burner.join();

  fixture.Shutdown();
  EXPECT_EQ(fixture.server().stats().shed,
            static_cast<uint64_t>(overloaded));
}

TEST(ServerTest, DeadlineExpiresMidEvaluation) {
  ServerConfig config;
  config.workers = 1;
  config.deadline_ms = 80;
  ServerFixture fixture(config);
  Client client = fixture.MustConnect();
  JsonValue req = JsonValue::Object();
  req.Set("burn_ms", JsonValue::Number(2000));
  auto response = client.CallVerb("ping", std::move(req));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();

  fixture.Shutdown();
  EXPECT_GE(fixture.server().stats().deadline_misses, 1u);
}

TEST(ServerTest, GracefulDrainFinishesInFlightWork) {
  ServerConfig config;
  config.workers = 2;
  ServerFixture fixture(config);
  Client client = fixture.MustConnect();

  // Launch a slow request, then trigger shutdown while it runs: the drain
  // must deliver its response before the server exits.
  std::thread slow([&] {
    JsonValue req = JsonValue::Object();
    req.Set("burn_ms", JsonValue::Number(400));
    auto r = client.CallVerb("ping", std::move(req));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fixture.server().RequestShutdown();
  slow.join();
  fixture.Shutdown();
  EXPECT_EQ(fixture.server().stats().requests, 1u);
}

TEST(ServerTest, DrainingServerRejectsNewFrames) {
  ServerConfig config;
  config.workers = 1;
  ServerFixture fixture(config);
  Client busy = fixture.MustConnect();
  RawConn late(fixture.port());

  std::thread slow([&] {
    JsonValue req = JsonValue::Object();
    req.Set("burn_ms", JsonValue::Number(500));
    (void)busy.CallVerb("ping", std::move(req));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fixture.server().RequestShutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  late.Send("{\"verb\":\"ping\"}\n");
  auto response = ParseJson(late.ReadLine());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("code"), "shutting_down");
  slow.join();
  fixture.Shutdown();
  EXPECT_GE(fixture.server().stats().rejected_draining, 1u);
}

TEST(ClientTest, ConnectToClosedPortFailsCleanly) {
  // Bind-then-close to get a port that is almost certainly unoccupied.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);

  auto client = Client::Connect("127.0.0.1", port, 1000);
  EXPECT_FALSE(client.ok());
}

}  // namespace
}  // namespace infoleak::svc
