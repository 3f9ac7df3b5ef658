#include "svc/protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "svc/queue.h"

namespace infoleak::svc {
namespace {

TEST(ParseRequestTest, ExtractsVerbIdAndBody) {
  auto req = ParseRequest(
      R"({"verb": "leak", "id": 7, "record_id": 3})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->verb, "leak");
  EXPECT_EQ(req->id, "7");  // captured as rendered JSON, echoed verbatim
  EXPECT_DOUBLE_EQ(req->body.GetNumber("record_id", -1), 3.0);
}

TEST(ParseRequestTest, StringIdsKeepTheirQuotes) {
  auto req = ParseRequest(R"({"verb": "ping", "id": "abc"})");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->id, "\"abc\"");
}

TEST(ParseRequestTest, RejectsNonObjectMissingOrBlankVerb) {
  EXPECT_FALSE(ParseRequest("[1]").ok());
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest(R"({"verb": 3})").ok());
  EXPECT_FALSE(ParseRequest(R"({"verb": ""})").ok());
  EXPECT_FALSE(ParseRequest("not json at all").ok());
}

TEST(ResponseTest, OkResponseEchoesIdAsValue) {
  JsonValue ok = OkResponse("7");
  EXPECT_EQ(ok.Render(), "{\"id\":7,\"ok\":true}");
  EXPECT_EQ(OkResponse("").Render(), "{\"ok\":true}");
}

TEST(ResponseTest, ErrorResponseCarriesCodeAndMessage) {
  const std::string line = ErrorResponse("\"x\"", "overloaded", "full");
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_FALSE(parsed->GetBool("ok", true));
  EXPECT_EQ(parsed->GetString("code"), "overloaded");
  EXPECT_EQ(parsed->GetString("error"), "full");
  EXPECT_EQ(parsed->GetString("id"), "x");
}

TEST(ResponseTest, WireCodeMapsStatusCodes) {
  EXPECT_EQ(WireCode(Status::InvalidArgument("x")), "invalid_argument");
  EXPECT_EQ(WireCode(Status::NotFound("x")), "not_found");
  EXPECT_EQ(WireCode(Status::OutOfRange("x")), "not_found");
  // `overloaded` is only the server's admission shedding (a literal in
  // the server loop); a request that itself exceeds a limit is
  // resource_exhausted, since retrying it cannot succeed.
  EXPECT_EQ(WireCode(Status::ResourceExhausted("x")), "resource_exhausted");
  EXPECT_EQ(WireCode(Status::FailedPrecondition("x")), "failed_precondition");
  EXPECT_EQ(WireCode(Status::DeadlineExceeded("x")), "deadline_exceeded");
  EXPECT_EQ(WireCode(Status::Internal("x")), "internal");
  EXPECT_EQ(WireCode(Status::Corruption("x")), "internal");
}

TEST(BoundedQueueTest, TryPushShedsAtCapacityWithoutBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: immediate failure, no wait
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(3));  // slot freed
}

TEST(BoundedQueueTest, CloseDrainsBacklogThenStopsConsumers) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(10));
  ASSERT_TRUE(q.TryPush(20));
  q.Close();
  EXPECT_FALSE(q.TryPush(30));  // closed: no new admissions
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 20);
  EXPECT_FALSE(q.Pop(&out));  // drained + closed
}

TEST(BoundedQueueTest, CloseReleasesBlockedConsumers) {
  BoundedQueue<int> q(1);
  std::vector<std::thread> consumers;
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    consumers.emplace_back([&] {
      int out;
      while (q.Pop(&out)) {
      }
      finished.fetch_add(1);
    });
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 4);
}

TEST(BoundedQueueTest, ConcurrentProducersNeverExceedCapacity) {
  BoundedQueue<int> q(8);
  std::atomic<int> accepted{0}, popped{0};
  std::vector<std::thread> workers;
  for (int p = 0; p < 4; ++p) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (q.TryPush(i)) accepted.fetch_add(1);
      }
    });
  }
  std::thread consumer([&] {
    int out;
    while (q.Pop(&out)) popped.fetch_add(1);
  });
  for (auto& t : workers) t.join();
  q.Close();
  consumer.join();
  EXPECT_EQ(accepted.load(), popped.load());
  EXPECT_GT(accepted.load(), 0);
}

}  // namespace
}  // namespace infoleak::svc
