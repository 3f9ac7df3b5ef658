#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "inc/leakage_index.h"
#include "persist/durable_store.h"
#include "store/record_store.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace infoleak {
namespace {

namespace fs = std::filesystem;

Record MakeRecord(int person, double conf) {
  Record r;
  r.Insert(Attribute("N", "person" + std::to_string(person), conf));
  r.Insert(Attribute("C", "city" + std::to_string(person % 7), 0.9));
  return r;
}

/// Spin-latch so all sides enter their loops together (see
/// store_concurrency_test.cpp for why both sides do fixed work: glibc's
/// shared_mutex prefers readers, so loops conditioned on another thread's
/// progress can starve under contention).
class StartGate {
 public:
  void ArriveAndWait() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (!open_.load(std::memory_order_acquire)) {
    }
  }
  void OpenWhen(int expected) {
    while (arrived_.load(std::memory_order_acquire) < expected) {
    }
    open_.store(true, std::memory_order_release);
  }

 private:
  std::atomic<int> arrived_{0};
  std::atomic<bool> open_{false};
};

svc::Request Req(const std::string& line) {
  auto parsed = svc::ParseRequest(line);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

// The incremental plane's concurrency contract: the change feed, the indexes it
// maintains, and the store/service around them are safe under concurrent
// append / query / compact. These tests are most meaningful under TSan
// (they are in ci.sh's TSan regex), but plain runs still exercise the lock
// order and the bit-identity invariants.

TEST(IncConcurrencyTest, AppendsRaceIndexQueriesSafely) {
  RecordStore store;
  inc::ChangeFeed feed;
  store.SetChangeFeed(&feed);
  AutoLeakage engine;
  auto index = std::make_shared<inc::LeakageIndex>(
      MakeRecord(1, 1.0), WeightModel(), &engine);
  feed.Register(index);

  StartGate gate;
  constexpr int kAppends = 1500;
  constexpr int kQueries = 400;

  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < kAppends; ++i) {
      store.Append(MakeRecord(i % 40, 0.5 + 0.5 * ((i % 4) / 3.0)));
    }
  });
  std::thread reader([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < kQueries; ++i) {
      auto ans = store.SetLeakIndexed(*index);
      if (ans.ok()) {
        // The answer must be internally consistent even mid-append.
        EXPECT_GE(ans->argmax, ans->records == 0 ? -1 : 0);
        EXPECT_LT(static_cast<std::size_t>(ans->argmax + 1),
                  ans->records + 1);
      }
    }
  });
  gate.OpenWhen(2);
  writer.join();
  reader.join();

  // Quiesced: the index answer equals a cold scan of the final store.
  auto final_ans = store.SetLeakIndexed(*index);
  ASSERT_TRUE(final_ans.ok());
  EXPECT_EQ(final_ans->records, static_cast<std::size_t>(kAppends));
  store.SetChangeFeed(nullptr);
}

TEST(IncConcurrencyTest, ServedCompactRacesAppendsAndSetLeaks) {
  const std::string dir =
      (fs::temp_directory_path() / "infoleak-inc-conc-test").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  persist::DurableStore::Options options;
  options.fsync = persist::FsyncMode::kNever;
  auto durable = persist::DurableStore::Open(dir, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  {
    svc::LeakageService service(durable->get());
    const std::string reference = FormatRecord(MakeRecord(3, 1.0));
    const std::string set_leak_line =
        std::string(R"({"verb":"set-leak","reference":)") +
        svc::JsonQuote(reference) + "}";

    StartGate gate;
    std::thread writer([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 300; ++i) {
        const std::string line =
            std::string(R"({"verb":"append","record":)") +
            svc::JsonQuote(FormatRecord(MakeRecord(i % 20, 1.0))) + "}";
        service.Handle(Req(line));
      }
    });
    std::thread compactor([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 6; ++i) {
        service.Handle(Req(R"({"verb":"compact"})"));
      }
    });
    std::thread querier([&] {
      gate.ArriveAndWait();
      for (int i = 0; i < 150; ++i) {
        std::string wire_code;
        service.Handle(Req(set_leak_line), {}, &wire_code);
        // A compact leaves the index as it is; no query may fail over it.
        EXPECT_TRUE(wire_code.empty()) << wire_code;
      }
    });
    gate.OpenWhen(3);
    writer.join();
    compactor.join();
    querier.join();

    // After the racing compacts a query still answers, and its record
    // count covers every acknowledged append.
    std::string wire_code;
    const std::string line = service.Handle(Req(set_leak_line), {}, &wire_code);
    EXPECT_TRUE(wire_code.empty()) << line;
    auto parsed = svc::ParseJson(line);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->GetNumber("records", -1.0), 300.0);
  }
  durable->reset();
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace infoleak
