#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/leakage.h"
#include "gen/generator.h"
#include "inc/leakage_index.h"
#include "persist/durable_store.h"
#include "store/record_store.h"

namespace infoleak {
namespace {

namespace fs = std::filesystem;

/// The durability contract under test: a recovered store is not merely
/// "equivalent" to the live one — its leakage answers are BIT-identical,
/// across engines, because records come back in append order with their
/// exact confidence bits, so every floating-point reduction runs in the
/// same order on the same values.

std::string TempDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct Answers {
  double set_leakage;
  std::ptrdiff_t argmax;
};

/// Set-leak as the service serves it: a fresh leakage index catching up
/// from the store's interned cells.
Answers Ask(const RecordStore& store, const Record& p, const WeightModel& wm,
            const LeakageEngine& engine) {
  inc::LeakageIndex index(p, wm, &engine);
  auto answer = store.SetLeakIndexed(index);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  if (!answer.ok()) return {-1.0, -1};
  return {answer->leakage, answer->argmax};
}

/// Appends the dataset into a durable store, optionally snapshotting at
/// `snapshot_at` appends (so recovery mixes snapshot + WAL tail), then
/// recovers and checks both engines answer exactly like the live store.
void CheckRoundTrip(uint64_t seed, std::size_t num_records,
                    std::size_t snapshot_at, const std::string& dir_name) {
  GeneratorConfig config;
  config.seed = seed;
  config.n = 12;
  config.num_records = num_records;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  // The never-persisted original.
  RecordStore live;
  for (const auto& r : data->records) live.Append(r);

  const std::string dir = TempDir(dir_name);
  {
    auto durable = persist::DurableStore::Open(dir);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    std::size_t appended = 0;
    for (const auto& r : data->records) {
      ASSERT_TRUE((*durable)->Append(r).ok());
      if (++appended == snapshot_at) {
        ASSERT_TRUE((*durable)->Snapshot().ok());
      }
    }
  }

  auto recovered = persist::DurableStore::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ((*recovered)->store().size(), live.size());
  if (snapshot_at > 0 && snapshot_at <= num_records) {
    EXPECT_EQ((*recovered)->recovery().snapshot_records, snapshot_at);
  }

  const ExactLeakage exact;
  const ApproxLeakage approx;  // Taylor-series engine
  for (const LeakageEngine* engine :
       {static_cast<const LeakageEngine*>(&exact),
        static_cast<const LeakageEngine*>(&approx)}) {
    const Answers want = Ask(live, data->reference, data->weights, *engine);
    const Answers got =
        Ask((*recovered)->store(), data->reference, data->weights, *engine);
    // EXPECT_EQ on doubles: same bits, not same-within-epsilon.
    EXPECT_EQ(got.set_leakage, want.set_leakage)
        << "engine " << engine->name() << ", seed " << seed;
    EXPECT_EQ(got.argmax, want.argmax)
        << "engine " << engine->name() << ", seed " << seed;
  }
}

TEST(PersistRoundTripTest, WalOnlyRecoveryIsBitIdentical) {
  CheckRoundTrip(/*seed=*/1, /*num_records=*/200, /*snapshot_at=*/0,
                 "rt_wal_only");
}

TEST(PersistRoundTripTest, SnapshotOnlyRecoveryIsBitIdentical) {
  CheckRoundTrip(/*seed=*/2, /*num_records=*/200, /*snapshot_at=*/200,
                 "rt_snapshot_only");
}

TEST(PersistRoundTripTest, SnapshotPlusWalTailIsBitIdentical) {
  CheckRoundTrip(/*seed=*/3, /*num_records=*/200, /*snapshot_at=*/120,
                 "rt_mixed");
}

TEST(PersistRoundTripTest, ManySeedsSweep) {
  for (uint64_t seed = 10; seed < 18; ++seed) {
    CheckRoundTrip(seed, /*num_records=*/60,
                   /*snapshot_at=*/(seed % 4) * 20,
                   "rt_sweep_" + std::to_string(seed));
  }
}

TEST(PersistRoundTripTest, TenThousandRecordStoreRecoversBitIdentical) {
  // The issue's acceptance bar: a generator-built 10k-record store.
  CheckRoundTrip(/*seed=*/42, /*num_records=*/10000, /*snapshot_at=*/6000,
                 "rt_10k");
}

TEST(PersistRoundTripTest, CompactionPreservesAnswers) {
  GeneratorConfig config;
  config.seed = 7;
  config.n = 10;
  config.num_records = 150;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());

  RecordStore live;
  for (const auto& r : data->records) live.Append(r);

  const std::string dir = TempDir("rt_compact");
  {
    auto durable = persist::DurableStore::Open(dir);
    ASSERT_TRUE(durable.ok());
    std::size_t appended = 0;
    for (const auto& r : data->records) {
      ASSERT_TRUE((*durable)->Append(r).ok());
      // Compact mid-stream: later appends go to the reset WAL.
      if (++appended == 100) ASSERT_TRUE((*durable)->Compact().ok());
    }
  }
  auto recovered = persist::DurableStore::Open(dir);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ((*recovered)->store().size(), live.size());
  EXPECT_EQ((*recovered)->recovery().snapshot_records, 100u);
  EXPECT_EQ((*recovered)->recovery().replayed_frames, 50u);

  const ExactLeakage exact;
  const Answers want = Ask(live, data->reference, data->weights, exact);
  const Answers got =
      Ask((*recovered)->store(), data->reference, data->weights, exact);
  EXPECT_EQ(got.set_leakage, want.set_leakage);
  EXPECT_EQ(got.argmax, want.argmax);
}

}  // namespace
}  // namespace infoleak
