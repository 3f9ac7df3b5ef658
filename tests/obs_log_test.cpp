// Tests for the structured request log (src/obs/log.h): ring overwrite
// with exact accounting, the slow-query ring's retention order, Recent's
// cursor/latency filters, the JSONL rendering contract (zero phases
// omitted), the kill switch, the request counter's label vocabulary, and —
// the load-bearing part — exact
// recorded/overwritten totals with no torn events under 8-thread
// concurrency. The concurrency tests also run under the CI TSan pass.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request.h"

namespace infoleak {
namespace {

obs::RequestEvent MakeEvent(uint64_t id, uint64_t total_nanos,
                            const std::string& verb = "set-leak") {
  obs::RequestEvent event;
  event.id = id;
  event.verb = verb;
  event.outcome = "ok";
  event.total_nanos = total_nanos;
  return event;
}

TEST(EventLogTest, RecordsAndReadsBack) {
  obs::EventLog log(/*capacity=*/64, /*slow_capacity=*/8);
  log.Record(MakeEvent(1, 1000));
  log.Record(MakeEvent(2, 2000));
  log.Record(MakeEvent(3, 3000));
  auto events = log.Recent(10);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[1].id, 2u);
  EXPECT_EQ(events[2].id, 3u);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.overwritten(), 0u);
}

TEST(EventLogTest, RingOverwritesOldestAndCountsDisplacements) {
  // Single shard slot per shard (capacity 8 over 8 shards): every record
  // on the same thread lands in one shard, so the second displaces the
  // first and so on.
  obs::EventLog log(/*capacity=*/8, /*slow_capacity=*/4);
  for (uint64_t id = 1; id <= 5; ++id) log.Record(MakeEvent(id, id * 100));
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.overwritten(), 4u);
  auto events = log.Recent(10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, 5u);
}

TEST(EventLogTest, RecentFiltersByCursorAndLatency) {
  obs::EventLog log(/*capacity=*/64, /*slow_capacity=*/8);
  for (uint64_t id = 1; id <= 6; ++id) log.Record(MakeEvent(id, id * 1000));
  auto after = log.Recent(10, /*after_id=*/4);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].id, 5u);
  EXPECT_EQ(after[1].id, 6u);
  auto slow = log.Recent(10, /*after_id=*/0, /*min_total_nanos=*/5000);
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].id, 5u);
  EXPECT_EQ(slow[1].id, 6u);
  // Newest-max: asking for 2 keeps the newest two of the six.
  auto newest = log.Recent(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].id, 5u);
  EXPECT_EQ(newest[1].id, 6u);
}

TEST(EventLogTest, SlowRingRetainsWorstAcrossOverwrite) {
  // The recent ring loses old events; the slow ring must keep the worst
  // regardless of age.
  obs::EventLog log(/*capacity=*/8, /*slow_capacity=*/3);
  log.Record(MakeEvent(1, 9000));  // slow, old — must survive
  for (uint64_t id = 2; id <= 40; ++id) log.Record(MakeEvent(id, id));
  log.Record(MakeEvent(41, 7000));
  log.Record(MakeEvent(42, 8000));
  auto slow = log.Slowest(10);
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].id, 1u);   // 9000 ns, slowest first
  EXPECT_EQ(slow[1].id, 42u);  // 8000 ns
  EXPECT_EQ(slow[2].id, 41u);  // 7000 ns
}

TEST(EventLogTest, DisabledRecordsNothing) {
  obs::EventLog log(/*capacity=*/8, /*slow_capacity=*/4);
  EXPECT_TRUE(log.enabled());
  log.SetEnabled(false);
  log.Record(MakeEvent(1, 1000));
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.Recent(10).empty());
  EXPECT_TRUE(log.Slowest(10).empty());
  log.SetEnabled(true);
  log.Record(MakeEvent(2, 1000));
  EXPECT_EQ(log.recorded(), 1u);
}

TEST(EventLogTest, ClearZeroesEverything) {
  obs::EventLog log(/*capacity=*/8, /*slow_capacity=*/4);
  for (uint64_t id = 1; id <= 10; ++id) log.Record(MakeEvent(id, id));
  log.Clear();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.overwritten(), 0u);
  EXPECT_TRUE(log.Recent(10).empty());
  EXPECT_TRUE(log.Slowest(10).empty());
}

TEST(EventLogTest, JsonlOmitsZeroPhasesAndRendersTheRest) {
  obs::RequestEvent event = MakeEvent(7, 1500000, "append");
  event.phase_nanos[static_cast<int>(obs::Phase::kQueue)] = 1000;
  event.phase_nanos[static_cast<int>(obs::Phase::kFsync)] = 1200000;
  event.records_scanned = 3;
  event.bytes_in = 10;
  event.bytes_out = 20;
  const std::string line = obs::RenderEventJsonl(event);
  EXPECT_NE(line.find("\"id\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"verb\":\"append\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_us\":1500.000"), std::string::npos) << line;
  EXPECT_NE(line.find("\"queue\":1.000"), std::string::npos) << line;
  EXPECT_NE(line.find("\"fsync\":1200.000"), std::string::npos) << line;
  // Phases that never ran are absent, so a present key is always non-zero.
  EXPECT_EQ(line.find("\"eval\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"parse\""), std::string::npos) << line;
  // No kernel, no deadline: the optional keys disappear entirely.
  EXPECT_EQ(line.find("\"kernel\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"deadline_us\""), std::string::npos) << line;
}

TEST(EventLogTest, JsonlEscapesHostileStrings) {
  obs::RequestEvent event = MakeEvent(1, 1000);
  event.verb = "ve\"rb\n";
  event.outcome = "o\\k";
  const std::string line = obs::RenderEventJsonl(event);
  EXPECT_NE(line.find("\"ve\\\"rb\\n\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"o\\\\k\""), std::string::npos) << line;
}

// The accounting contract under contention: N threads x M events each must
// land as exactly N*M recorded, with recorded - overwritten events
// retained across the shards, and every retained event intact (id, verb,
// outcome, and total must belong together — a torn event would mix them).
uint64_t RequestsTotal(const std::string& verb, const std::string& outcome) {
  return obs::MetricsRegistry::Global()
      .GetCounter("infoleak_requests_total",
                  {{"verb", verb}, {"outcome", outcome}})
      .Value();
}

TEST(EventLogTest, RequestCounterKeepsEveryServedVerbAndWireCode) {
  // Every verb the service dispatches and every code WireCode sends keeps
  // its own label; only invented ones collapse to "other" / "error".
  struct Case {
    const char* verb;
    const char* outcome;
    const char* want_verb;
    const char* want_outcome;
  };
  const Case cases[] = {
      {"subscribe", "ok", "subscribe", "ok"},
      {"compact", "failed_precondition", "compact", "failed_precondition"},
      {"set-leak", "resource_exhausted", "set-leak", "resource_exhausted"},
      {"no-such-verb", "not_supported", "other", "error"},
  };
  obs::EventLog log(/*capacity=*/64, /*slow_capacity=*/8);
  for (const Case& c : cases) {
    const uint64_t before = RequestsTotal(c.want_verb, c.want_outcome);
    obs::RequestEvent event = MakeEvent(1, 1000, c.verb);
    event.outcome = c.outcome;
    log.Record(event);
    EXPECT_EQ(RequestsTotal(c.want_verb, c.want_outcome), before + 1)
        << c.verb << " / " << c.outcome;
  }
}

TEST(TraceNowNanosTest, IsMonotonic) {
  uint64_t a = obs::TraceNowNanos();
  uint64_t b = obs::TraceNowNanos();
  EXPECT_LE(a, b);
}

TEST(EventLogConcurrencyTest, ExactTotalsAndNoTornEventsUnder8Threads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  obs::EventLog log(/*capacity=*/256, /*slow_capacity=*/16);
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &start, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        // Every field derives from the id, so readers can verify an event
        // was written atomically.
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        obs::RequestEvent event =
            MakeEvent(id, id * 10, "verb-" + std::to_string(id));
        event.outcome = "outcome-" + std::to_string(id);
        event.records_scanned = id * 3;
        log.Record(std::move(event));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(log.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const auto events = log.Recent(10000);
  EXPECT_EQ(log.recorded() - log.overwritten(), events.size());
  uint64_t prev_id = 0;
  for (const auto& event : events) {
    EXPECT_GT(event.id, prev_id);  // unique, ascending
    prev_id = event.id;
    EXPECT_EQ(event.verb, "verb-" + std::to_string(event.id));
    EXPECT_EQ(event.outcome, "outcome-" + std::to_string(event.id));
    EXPECT_EQ(event.total_nanos, event.id * 10);
    EXPECT_EQ(event.records_scanned, event.id * 3);
  }
  // The slow ring saw every offer; with totals = id*10 it must retain the
  // highest ids, slowest first.
  const auto slow = log.Slowest(16);
  ASSERT_EQ(slow.size(), 16u);
  const uint64_t max_id = static_cast<uint64_t>(kThreads) * kPerThread;
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].id, max_id - i);
  }
}

// Readers racing writers must always observe consistent events and
// monotonically consistent accounting (retained <= recorded, and the
// retained count of a quiesced log equals recorded - overwritten).
TEST(EventLogConcurrencyTest, ConcurrentReadersSeeConsistentEvents) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kPerThread = 1500;
  obs::EventLog log(/*capacity=*/128, /*slow_capacity=*/8);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i + 1;
        log.Record(MakeEvent(id, id, "verb-" + std::to_string(id)));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&log, &done] {
      while (!done.load()) {
        for (const auto& event : log.Recent(64)) {
          ASSERT_EQ(event.verb, "verb-" + std::to_string(event.id));
          ASSERT_EQ(event.total_nanos, event.id);
        }
        for (const auto& event : log.Slowest(8)) {
          ASSERT_EQ(event.verb, "verb-" + std::to_string(event.id));
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  done.store(true);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();
  EXPECT_EQ(log.recorded(),
            static_cast<uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(log.recorded() - log.overwritten(), log.Recent(100000).size());
}

}  // namespace
}  // namespace infoleak
