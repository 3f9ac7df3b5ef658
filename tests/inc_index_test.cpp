#include "inc/leakage_index.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/column_bank.h"
#include "core/database.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "core/record_io.h"
#include "inc/change_feed.h"
#include "obs/metrics.h"
#include "store/record_store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace infoleak::inc {
namespace {

Record Rec(const std::string& text) {
  auto r = ParseRecord(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

WeightModel Weights(const std::string& spec = "") {
  auto wm = WeightModel::Parse(spec);
  EXPECT_TRUE(wm.ok()) << wm.status().ToString();
  return std::move(wm).value();
}

/// A deterministic database with a spread of leakage values against the
/// reference below: some full matches, partial matches, and misses.
Database SeededDb(std::size_t n, uint64_t seed = 42) {
  Rng rng(seed);
  Database db;
  for (std::size_t i = 0; i < n; ++i) {
    const int shape = static_cast<int>(rng.NextBounded(4));
    const double conf = 0.25 + 0.25 * static_cast<double>(rng.NextBounded(4));
    std::string text;
    switch (shape) {
      case 0:
        text = "{<N, alice, " + FormatDoubleRoundTrip(conf) + ">}";
        break;
      case 1:
        text = "{<N, alice, 1>, <C, rome, " + FormatDoubleRoundTrip(conf) +
               ">}";
        break;
      case 2:
        text = "{<N, bob" + std::to_string(rng.NextBounded(8)) + ", 1>}";
        break;
      default:
        text = "{<N, alice, 1>, <C, rome, 1>, <P, 123, " +
               FormatDoubleRoundTrip(conf) + ">}";
        break;
    }
    db.Add(Rec(text));
  }
  return db;
}

const char* kReference = "{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}";

/// `db` as a RecordStore holds it. The index reads the store's interned
/// cells, never the records themselves.
class Stored {
 public:
  explicit Stored(const Database& db) : store_(RecordStore::FromDatabase(db)) {}

  InternedRecords rows() const { return store_.interned(); }

  /// The delta the store publishes when it appends record `i`.
  AppendDelta Delta(std::size_t i) const {
    AppendDelta delta;
    delta.id = static_cast<RecordId>(i);
    delta.rows = rows();
    delta.rows.size = i + 1;
    return delta;
  }

 private:
  RecordStore store_;
};

/// Index answers must be bit-identical to a cold columnar scan of the same
/// records, whichever engine maintains them.
TEST(IncIndexTest, QueryMatchesColdRescanBitExactly) {
  const Database db = SeededDb(200);
  const Stored stored(db);
  const Record p = Rec(kReference);
  AutoLeakage auto_engine;
  ExactLeakage exact_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &exact_engine,
                                    &approx_engine};
  for (const LeakageEngine* engine : engines) {
    // exact only accepts uniform weights; the others get a skewed model so
    // the comparison covers weighted arithmetic too.
    const WeightModel wm =
        engine == &exact_engine ? Weights() : Weights("N=2,C=1,P=3");
    const PreparedReference prep(p, wm);
    ColumnBank bank(prep);
    bank.ExtendFrom(db);
    std::ptrdiff_t want_argmax = -1;
    auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
    ASSERT_TRUE(want.ok()) << engine->name();

    LeakageIndex index(p, wm, engine);
    auto got = index.QueryLocked(stored.rows());
    ASSERT_TRUE(got.ok()) << engine->name() << ": " << got.status().ToString();
    EXPECT_EQ(got->leakage, *want) << engine->name();  // exact, not near
    EXPECT_EQ(got->argmax, want_argmax) << engine->name();
    EXPECT_EQ(got->records, db.size());
  }
}

/// The measure-family engines (core/measure_family.h) maintain indexes too:
/// per measure, the indexed answer must be bit-identical to a cold columnar
/// scan under the same engine — and never a stale default-measure value.
TEST(IncIndexTest, MeasureEngineQueriesMatchColdRescanBitExactly) {
  const Database db = SeededDb(200);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights("N=2,C=1,P=3");
  for (Measure m : {Measure::kPml, Measure::kGuesswork, Measure::kUnder,
                    Measure::kOver}) {
    const LeakageEngine* engine = MeasureEngineSingleton(m);
    ASSERT_NE(engine, nullptr);
    const PreparedReference prep(p, wm);
    ColumnBank bank(prep);
    bank.ExtendFrom(db);
    std::ptrdiff_t want_argmax = -1;
    auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
    ASSERT_TRUE(want.ok()) << engine->name();

    LeakageIndex index(p, wm, engine);
    auto got = index.QueryLocked(stored.rows());
    ASSERT_TRUE(got.ok()) << engine->name() << ": " << got.status().ToString();
    EXPECT_EQ(got->leakage, *want) << engine->name();  // exact, not near
    EXPECT_EQ(got->argmax, want_argmax) << engine->name();
    EXPECT_EQ(got->records, db.size());
  }
}

/// Guards the engine-identity keying: an index maintained under pml must
/// not answer with the default measure's value. Every record here keeps a
/// partial confidence, so the world maximum strictly exceeds the
/// expectation and any cross-contamination shows up as a value mismatch.
TEST(IncIndexTest, MeasureIndexNeverServesStaleDefaultAnswers) {
  Database db;
  db.Add(Rec("{<N, alice, 0.5>, <C, rome, 0.5>}"));
  db.Add(Rec("{<N, alice, 0.75>, <P, 123, 0.25>}"));
  db.Add(Rec("{<C, rome, 0.5>}"));
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage auto_engine;
  LeakageIndex default_index(p, wm, &auto_engine);
  LeakageIndex pml_index(p, wm, MeasureEngineSingleton(Measure::kPml));
  auto expected = default_index.QueryLocked(stored.rows());
  auto pml = pml_index.QueryLocked(stored.rows());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(pml.ok());
  EXPECT_NE(pml->leakage, expected->leakage)
      << "pml index returned the default measure's answer";
  EXPECT_GE(pml->leakage, expected->leakage);  // family ordering on the max
}

/// Record-at-a-time maintenance under a measure engine lands on the same
/// bits as the one-shot catch-up — the append path has no measure-specific
/// code, and this keeps it that way.
TEST(IncIndexTest, MeasureEngineAppendsMatchOneShotCatchup) {
  const Database db = SeededDb(120, 7);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  const LeakageEngine* engine = MeasureEngineSingleton(Measure::kGuesswork);

  LeakageIndex one_shot(p, wm, engine);
  auto want = one_shot.QueryLocked(stored.rows());
  ASSERT_TRUE(want.ok());

  LeakageIndex stepped(p, wm, engine);
  for (std::size_t i = 0; i < db.size(); ++i) {
    stepped.OnAppend(stored.Delta(i));
  }
  auto got = stepped.QueryLocked(stored.rows());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->leakage, want->leakage);
  EXPECT_EQ(got->argmax, want->argmax);
  EXPECT_EQ(stepped.Stats().covered, db.size());
}

TEST(IncIndexTest, IncrementalAppendsMatchOneShotCatchup) {
  // Record-at-a-time maintenance (the OnAppend path) must land on the same
  // bits as one big catch-up, and as the cold scan.
  const Database db = SeededDb(120, 7);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;

  LeakageIndex one_shot(p, wm, &engine);
  auto want = one_shot.QueryLocked(stored.rows());
  ASSERT_TRUE(want.ok());

  LeakageIndex stepped(p, wm, &engine);
  for (std::size_t i = 0; i < db.size(); ++i) {
    stepped.OnAppend(stored.Delta(i));
  }
  auto got = stepped.QueryLocked(stored.rows());  // no gap left: pure lookup
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->leakage, want->leakage);
  EXPECT_EQ(got->argmax, want->argmax);
  EXPECT_EQ(stepped.Stats().covered, db.size());
}

TEST(IncIndexTest, OutOfOrderAppendIsIgnoredAndCatchupHeals) {
  const Database db = SeededDb(30, 3);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine);

  // A delta from the future (id 5 while the index covers 0) must not apply:
  // applying it would mint a wrong record_id -> leakage association.
  index.OnAppend(stored.Delta(5));
  EXPECT_EQ(index.Stats().covered, 0u);

  auto got = index.QueryLocked(stored.rows());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->records, db.size());
}

TEST(IncIndexTest, BoundSkipFiresAndNeverChangesTheAnswer) {
  // Strong matches first, then a long tail of weak records: once the top-k
  // fills with strong values, the tail's upper bounds prove it can't enter.
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  for (int i = 0; i < 8; ++i) {
    db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));
  }
  for (int i = 0; i < 200; ++i) {
    db.Add(Rec("{<N, alice, 0.25>}"));  // weak: one low-confidence attr
  }
  const Stored stored(db);
  ApproxLeakage engine;
  IndexOptions options;
  options.top_k = 4;
  LeakageIndex index(p, wm, &engine, options);
  auto got = index.QueryLocked(stored.rows());
  ASSERT_TRUE(got.ok());
  const IndexStats stats = index.Stats();
  EXPECT_GT(stats.bound_skips, 0u) << "the skip never fired";
  // Process-wide proof the counter is wired up.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("infoleak_inc_bound_skips_total")
                .Value(),
            0u);

  const PreparedReference prep(p, wm);
  ColumnBank bank(prep);
  bank.ExtendFrom(db);
  std::ptrdiff_t want_argmax = -1;
  auto want = SetLeakageColumnar(bank, engine, &want_argmax);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->leakage, *want);
  EXPECT_EQ(got->argmax, want_argmax);
}

TEST(IncIndexTest, StructuralErrorEnginesNeverSkip) {
  // naive's record-size cap errors are invisible to the bounds, so the
  // index must evaluate every record (and poison on the first error) —
  // exactly what a cold scan would report.
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  db.Add(Rec("{<N, alice, 1>}"));
  db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));  // over the cap
  const Stored stored(db);
  NaiveLeakage tiny(/*max_attributes=*/2);
  LeakageIndex index(p, wm, &tiny);
  auto got = index.QueryLocked(stored.rows());
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsFailedPrecondition()) << got.status().ToString();

  const IndexStats stats = index.Stats();
  EXPECT_TRUE(stats.poisoned);
  EXPECT_FALSE(stats.poison_detail.empty());
  EXPECT_EQ(stats.bound_skips, 0u);

  // The fallback scan reproduces the same first error.
  const PreparedReference prep(p, wm);
  ColumnBank bank(prep);
  bank.ExtendFrom(db);
  auto scan = SetLeakageColumnar(bank, tiny, nullptr);
  EXPECT_FALSE(scan.ok());

  // Poison is permanent: later queries keep refusing.
  EXPECT_TRUE(index.QueryLocked(stored.rows()).status().IsFailedPrecondition());
}

TEST(IncIndexTest, EpochBumpResetsAndRebuildRestoresTheAnswer) {
  const Database db = SeededDb(60, 11);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine);
  auto before = index.QueryLocked(stored.rows());
  ASSERT_TRUE(before.ok());

  index.OnEpochBump(3, "compact");
  IndexStats stats = index.Stats();
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.covered, 0u);

  // Background-style rebuild in chunks, then a pure-lookup query.
  while (!index.MaintainChunkLocked(stored.rows())) {
  }
  auto after = index.QueryLocked(stored.rows());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->leakage, before->leakage);
  EXPECT_EQ(after->argmax, before->argmax);
  EXPECT_EQ(index.Stats().epoch, 3u);
}

/// A fresh index far behind the store (more records than a chunked
/// rebuild would take in two steps) closes the whole gap inline on its
/// first query, bit-identical to the cold scan for every columnar engine.
TEST(IncIndexTest, FarBehindIndexCatchesUpInline) {
  const Database db = SeededDb(5000, 5);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage auto_engine;
  ApproxLeakage approx_engine;
  ExactLeakage exact_engine;
  NaiveLeakage naive_engine;
  const LeakageEngine* engines[] = {&auto_engine, &approx_engine,
                                    &exact_engine, &naive_engine};
  for (const LeakageEngine* engine : engines) {
    const PreparedReference prep(p, wm);
    const ColumnBank bank = ColumnBank::FromDatabase(db, prep);
    std::ptrdiff_t want_argmax = -1;
    auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
    ASSERT_TRUE(want.ok()) << engine->name();

    LeakageIndex index(p, wm, engine);
    auto got = index.QueryLocked(stored.rows());
    ASSERT_TRUE(got.ok()) << engine->name() << ": " << got.status().ToString();
    EXPECT_EQ(got->leakage, *want) << engine->name();
    EXPECT_EQ(got->argmax, want_argmax) << engine->name();
    EXPECT_EQ(got->records, db.size());
  }
}

/// A cancelled catch-up keeps what it applied: the next query resumes
/// where the cancel stopped it instead of starting over.
TEST(IncIndexTest, CancelledCatchupKeepsItsProgress) {
  const Database db = SeededDb(5000, 6);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine);
  int polls = 0;
  auto cancelled = index.QueryLocked(stored.rows(), [&polls] {
    return ++polls > 3;  // the catch-up polls once per 64 records
  });
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsDeadlineExceeded())
      << cancelled.status().ToString();
  const std::size_t kept = index.Stats().covered;
  EXPECT_EQ(kept, 3u * 64u);

  auto got = index.QueryLocked(stored.rows());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(index.Stats().applied, db.size()) << "records were re-applied";

  const PreparedReference prep(p, wm);
  const ColumnBank bank = ColumnBank::FromDatabase(db, prep);
  std::ptrdiff_t want_argmax = -1;
  auto want = SetLeakageColumnar(bank, engine, &want_argmax);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->leakage, *want);
  EXPECT_EQ(got->argmax, want_argmax);
}

TEST(IncIndexTest, EventsAfterHonorsCursorAndRingCapacity) {
  const Database db = SeededDb(40, 9);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  IndexOptions options;
  options.event_capacity = 16;
  LeakageIndex index(p, wm, &engine, options);
  ASSERT_TRUE(index.QueryLocked(stored.rows()).ok());

  // 40 applies into a 16-slot ring: the oldest 24 are gone, and the batch
  // reports how many.
  auto batch = index.EventsAfter(/*after_seq=*/0, /*max_events=*/100);
  EXPECT_EQ(batch.events.size(), 16u);
  EXPECT_EQ(batch.dropped, 24u);
  EXPECT_EQ(batch.covered, db.size());
  ASSERT_FALSE(batch.events.empty());
  EXPECT_EQ(batch.events.front().seq, 25u);  // seq is 1-based

  // Cursor semantics: strictly-after, oldest first, capped count.
  auto tail = index.EventsAfter(/*after_seq=*/30, /*max_events=*/4);
  ASSERT_EQ(tail.events.size(), 4u);
  EXPECT_EQ(tail.events.front().seq, 31u);
  EXPECT_EQ(tail.events.back().seq, 34u);
  // Sequences keep climbing across the ring: monotonic per index.
  uint64_t prev = 0;
  for (const DeltaEvent& e : batch.events) {
    EXPECT_GT(e.seq, prev);
    prev = e.seq;
  }
}

TEST(IncIndexTest, EventsCarryTheRunningSetLeakage) {
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  Database db;
  db.Add(Rec("{<N, alice, 0.5>}"));
  db.Add(Rec("{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>}"));
  db.Add(Rec("{<N, alice, 0.25>}"));
  const Stored stored(db);
  AutoLeakage engine;
  LeakageIndex index(p, wm, &engine);
  ASSERT_TRUE(index.QueryLocked(stored.rows()).ok());
  auto batch = index.EventsAfter(0, 10);
  ASSERT_EQ(batch.events.size(), 3u);
  EXPECT_EQ(batch.events[0].argmax, 0);
  EXPECT_EQ(batch.events[1].argmax, 1);  // the full match takes over
  EXPECT_EQ(batch.events[2].argmax, 1);  // and keeps the crown
  EXPECT_EQ(batch.events[2].set_leakage, batch.events[1].set_leakage);
  EXPECT_GE(batch.events[1].leakage, batch.events[0].leakage);
}

// ----- ChangeFeed ----------------------------------------------------------

/// Registered sinks must survive publishes (a weak_ptr self-move once
/// emptied the registry on every publish) and receive each delta once.
TEST(IncFeedTest, PublishKeepsLiveSinksRegistered) {
  const Database db = SeededDb(10, 21);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  auto index = std::make_shared<LeakageIndex>(p, wm, &engine);
  feed.Register(index);
  ASSERT_EQ(feed.registered(), 1u);

  for (std::size_t i = 0; i < db.size(); ++i) {
    feed.PublishAppend(stored.Delta(i));
    ASSERT_EQ(feed.registered(), 1u) << "publish dropped a live sink";
  }
  EXPECT_EQ(feed.sequence(), db.size());
  EXPECT_EQ(index->Stats().covered, db.size());
  feed.Shutdown();
}

TEST(IncFeedTest, DeadSinksArePrunedAndEpochBumpsFanOut) {
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  auto a = std::make_shared<LeakageIndex>(p, wm, &engine);
  auto b = std::make_shared<LeakageIndex>(p, wm, &engine);
  feed.Register(a);
  feed.Register(b);
  EXPECT_EQ(feed.registered(), 2u);
  b.reset();  // simulate cache eviction: the feed holds sinks weakly

  const uint64_t epoch = feed.PublishEpochBump("test");
  EXPECT_EQ(epoch, feed.epoch());
  EXPECT_EQ(feed.registered(), 1u);
  EXPECT_EQ(a->Stats().epoch, epoch);
  feed.Shutdown();
}

TEST(IncFeedTest, MaintenanceThreadRunsTheMaintainerHook) {
  const Database db = SeededDb(64, 31);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  IndexOptions options;
  options.maintenance_chunk = 16;
  auto index = std::make_shared<LeakageIndex>(
      p, wm, &engine, options,
      [&stored](LeakageIndex& idx) {
        return idx.MaintainChunkLocked(stored.rows());
      });
  feed.Register(index);
  feed.RequestMaintenance(index);
  // The maintenance thread re-enqueues until the index reports done.
  for (int i = 0; i < 200 && index->Stats().covered < db.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(index->Stats().covered, db.size());
  feed.Shutdown();
}

TEST(IncFeedTest, WaitForSequenceReturnsOnPublishAndOnTimeout) {
  ChangeFeed feed;
  // Timeout path: nothing publishes.
  EXPECT_EQ(feed.WaitForSequence(feed.sequence(), /*timeout_ms=*/20, {}),
            feed.sequence());
  // Publish path: a delta wakes the waiter.
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    feed.PublishAppend(AppendDelta{});
  });
  const uint64_t seen =
      feed.WaitForSequence(/*seq=*/0, /*timeout_ms=*/5000, {});
  EXPECT_GE(seen, 1u);
  publisher.join();
  feed.Shutdown();
}

}  // namespace
}  // namespace infoleak::inc
