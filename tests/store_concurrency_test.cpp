#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/leakage.h"
#include "core/record_io.h"
#include "inc/leakage_index.h"
#include "store/inverted_index.h"
#include "store/record_store.h"

namespace infoleak {
namespace {

Record MakeRecord(int person, int variant) {
  Record r;
  r.Insert(Attribute("N", "person" + std::to_string(person), 1.0));
  r.Insert(Attribute("P", std::to_string(1000 + variant), 0.9));
  return r;
}

/// Spin-latch so writer and readers enter their loops together. Both sides
/// do a fixed amount of work (never wait on each other's progress): glibc's
/// shared_mutex prefers readers, so a reader loop conditioned on "writer
/// done" can starve the writer forever, and the reverse race can finish the
/// writer before readers start.
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

// The satellite contract of this PR: RecordStore and InvertedIndex are safe
// for concurrent readers running against a single writer. These tests are
// most meaningful under ASan/TSan, but even plain runs exercise the locking
// and catch gross races via the invariant checks.

TEST(StoreConcurrencyTest, IndexReadersRaceOneWriterSafely) {
  InvertedIndex index;
  StartGate gate;

  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 2000; ++i) {
      index.Add(static_cast<RecordId>(i), MakeRecord(i % 50, i));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int i = 0; i < 300; ++i) {
        const std::string value = "person" + std::to_string((t * 7 + i) % 50);
        // Postings copies under the shared lock — the returned vector must
        // always be internally consistent (ascending ids).
        std::vector<RecordId> postings = index.Postings("N", value);
        for (std::size_t k = 1; k < postings.size(); ++k) {
          ASSERT_LT(postings[k - 1], postings[k]);
        }
        std::vector<RecordId> candidates =
            index.Candidates(MakeRecord((t * 7 + i) % 50, i));
        for (std::size_t k = 1; k < candidates.size(); ++k) {
          ASSERT_LT(candidates[k - 1], candidates[k]);
        }
        (void)index.num_postings();
      }
    });
  }
  gate.OpenWhen(5);
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(index.Postings("N", "person0").size(), 40u);
}

TEST(StoreConcurrencyTest, StoreReadersRaceOneAppenderSafely) {
  RecordStore store;
  for (int i = 0; i < 100; ++i) {
    store.Append(MakeRecord(i % 10, i));
  }
  auto reference = ParseRecord("{<N, person3, 1>, <P, 1003, 1>}");
  ASSERT_TRUE(reference.ok());
  auto weights = WeightModel::Parse("");
  ASSERT_TRUE(weights.ok());
  const PreparedReference prepared(*reference, *weights);
  AutoLeakage engine;
  StartGate gate;

  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 100; i < 600; ++i) {
      store.Append(MakeRecord(i % 10, i));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // Each reader's index catches up inline from the store's interned
      // cells on every query, racing the writer's appends.
      inc::LeakageIndex index(*reference, *weights, &engine);
      gate.ArriveAndWait();
      for (int i = 0; i < 40; ++i) {
        auto answer = store.SetLeakIndexed(index);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_GE(answer->leakage, 0.0);
        // The reference matches records in every snapshot.
        ASSERT_GE(answer->argmax, 0);
        auto one = store.RecordLeak(3, prepared, engine);
        ASSERT_TRUE(one.ok());
        auto record = store.Get(3);
        ASSERT_TRUE(record.ok());
        ASSERT_FALSE(store.Lookup("N", "person3").empty());
        (void)store.size();
      }
    });
  }
  gate.OpenWhen(5);
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(store.size(), 600u);

  // Quiesced store answers identically to a cold scan over the same data.
  inc::LeakageIndex index(*reference, *weights, &engine);
  auto final_leak = store.SetLeakIndexed(index);
  ASSERT_TRUE(final_leak.ok());
  EXPECT_EQ(final_leak->records, 600u);
  std::ptrdiff_t offline_argmax = -1;
  auto offline = SetLeakage(store.SnapshotDatabase(), *reference, *weights,
                            engine, &offline_argmax);
  ASSERT_TRUE(offline.ok());
  EXPECT_EQ(final_leak->leakage, *offline);
  EXPECT_EQ(final_leak->argmax, offline_argmax);
}

TEST(StoreConcurrencyTest, DossierRunsWhileAppending) {
  RecordStore store;
  for (int i = 0; i < 50; ++i) store.Append(MakeRecord(i % 5, i));
  auto query = ParseRecord("{<N, person2>}");
  ASSERT_TRUE(query.ok());
  StartGate gate;

  std::thread writer([&] {
    gate.ArriveAndWait();
    for (int i = 50; i < 300; ++i) store.Append(MakeRecord(i % 5, i));
  });
  std::thread reader([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 100; ++i) {
      std::vector<RecordId> members;
      auto dossier = store.Dossier(*query, {}, &members);
      ASSERT_TRUE(dossier.ok());
      ASSERT_FALSE(members.empty());
    }
  });
  gate.OpenWhen(2);
  writer.join();
  reader.join();
  EXPECT_EQ(store.size(), 300u);
}

}  // namespace
}  // namespace infoleak
