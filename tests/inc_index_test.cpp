#include "inc/leakage_index.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bounds.h"
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
/// records, whichever engine maintains them. Besides a spread of values,
/// two banks pin the argmax rule: an exact tie at the maximum (records 1, 3
/// and 4 are the same record) and a bank where every record leaks 0. The
/// scan, the index and a RunningMax over the per-record values (the
/// frontier's per-person rule) must all name the first record attaining
/// the maximum.
TEST(IncIndexTest, QueryMatchesColdRescanBitExactly) {
  const char* kTied = "{<N, alice, 1>, <C, rome, 0.5>}";
  Database tie;
  for (const char* text :
       {"{<N, alice, 0.5>}", kTied, "{<N, bob, 1>}", kTied, kTied}) {
    tie.Add(Rec(text));
  }
  Database zero;
  for (int i = 0; i < 4; ++i) {
    zero.Add(Rec("{<N, bob" + std::to_string(i) + ", 1>}"));
  }
  struct Bank {
    const char* name;
    Database db;
    std::ptrdiff_t first_max;  ///< -1: whatever the scan reports
  };
  const Bank banks[] = {{"seeded", SeededDb(200), -1},
                        {"tie", tie, 1},
                        {"all-zero", zero, 0}};
  const Record p = Rec(kReference);
  AutoLeakage auto_engine;
  ExactLeakage exact_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &exact_engine,
                                    &approx_engine};
  for (const Bank& b : banks) {
    const Stored stored(b.db);
    for (const LeakageEngine* engine : engines) {
      SCOPED_TRACE(std::string(b.name) + " / " + std::string(engine->name()));
      // exact only accepts uniform weights; the others get a skewed model so
      // the comparison covers weighted arithmetic too.
      const WeightModel wm =
          engine == &exact_engine ? Weights() : Weights("N=2,C=1,P=3");
      const PreparedReference prep(p, wm);
      ColumnBank bank(prep);
      bank.ExtendFrom(b.db);
      std::ptrdiff_t want_argmax = -1;
      auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
      ASSERT_TRUE(want.ok());
      if (b.first_max >= 0) EXPECT_EQ(want_argmax, b.first_max);

      auto values = BatchLeakageColumnar(bank, *engine);
      ASSERT_TRUE(values.ok());
      RunningMax rule;
      for (std::size_t i = 0; i < values->size(); ++i) {
        rule.Offer((*values)[i], static_cast<std::ptrdiff_t>(i));
      }
      EXPECT_EQ(rule.value(), *want);
      EXPECT_EQ(rule.index(), want_argmax);

      LeakageIndex index(p, wm, engine);
      auto got = index.QueryLocked(stored.rows());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->leakage, *want);  // exact, not near
      EXPECT_EQ(got->argmax, want_argmax);
      EXPECT_EQ(got->records, b.db.size());
    }
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
  // Strong matches first, then a long tail of weak records: once the
  // running maximum holds a strong value, the tail's upper bounds prove no
  // weak record can beat it.
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
  LeakageIndex index(p, wm, &engine);
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

  const IndexStats stats = index.Stats();
  EXPECT_TRUE(stats.poisoned);
  EXPECT_FALSE(stats.poison_detail.empty());
  EXPECT_EQ(stats.bound_skips, 0u);

  // The index returns the cold scan's first error unchanged.
  const PreparedReference prep(p, wm);
  ColumnBank bank(prep);
  bank.ExtendFrom(db);
  auto scan = SetLeakageColumnar(bank, tiny, nullptr);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(got.status().code(), scan.status().code());
  EXPECT_EQ(got.status().message(), scan.status().message());

  // Poison is permanent: later queries keep returning that error.
  auto again = index.QueryLocked(stored.rows());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), scan.status().code());
  EXPECT_EQ(again.status().message(), scan.status().message());
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
  EXPECT_EQ(batch.events.front().seq(), 25u);  // seq is record id + 1

  // Cursor semantics: strictly-after, oldest first, capped count.
  auto tail = index.EventsAfter(/*after_seq=*/30, /*max_events=*/4);
  ASSERT_EQ(tail.events.size(), 4u);
  EXPECT_EQ(tail.events.front().seq(), 31u);
  EXPECT_EQ(tail.events.back().seq(), 34u);
  // Sequences keep climbing across the ring: monotonic per index.
  uint64_t prev = 0;
  for (const DeltaEvent& e : batch.events) {
    EXPECT_GT(e.seq(), prev);
    prev = e.seq();
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

// ----- Catch-up: bound pass, ordered head, in-order tail -------------------

/// A backlog longer than the event ring is caught up in two parts: the head
/// in descending upper bound, evaluated only while a bound can beat the
/// running maximum, and the last `event_capacity` records in id order.
/// SeededDb holds many exact ties at the maximum, so the head must keep the
/// first argmax whatever order it visits them in.
TEST(IncIndexTest, OrderedHeadCatchupMatchesColdScanBitExactly) {
  const Database db = SeededDb(3000, 11);
  const Stored stored(db);
  const Record p = Rec(kReference);
  AutoLeakage auto_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &approx_engine};
  for (const LeakageEngine* engine : engines) {
    for (const char* spec : {"", "N=2,C=1,P=3"}) {
      const WeightModel wm = Weights(spec);
      const PreparedReference prep(p, wm);
      const ColumnBank bank = ColumnBank::FromDatabase(db, prep);
      std::ptrdiff_t want_argmax = -1;
      auto want = SetLeakageColumnar(bank, *engine, &want_argmax);
      ASSERT_TRUE(want.ok());
      for (const std::size_t capacity : {1, 16, 1024}) {
        SCOPED_TRACE(std::string(engine->name()) + " weights '" + spec +
                     "' ring " + std::to_string(capacity));
        IndexOptions options;
        options.event_capacity = capacity;
        LeakageIndex index(p, wm, engine, options);
        auto got = index.QueryLocked(stored.rows());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->leakage, *want);  // exact, not near
        EXPECT_EQ(got->argmax, want_argmax);
        EXPECT_EQ(got->records, db.size());
        const IndexStats stats = index.Stats();
        EXPECT_EQ(stats.applied, db.size());
        EXPECT_GT(stats.bound_skips, db.size() / 2);
      }
    }
  }
}

/// The ring, `dropped` and `applied` of a caught-up index read as if every
/// record had arrived through `OnAppend`: the tail steps in id order through
/// the live path, and the head's records count as dropped. The caught-up
/// index takes 100 live appends first, so the head also evicts a ring that
/// already held events.
TEST(IncIndexTest, CatchupEventsMatchOneAppendAtATime) {
  const Database db = SeededDb(600, 12);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights("N=2,C=1,P=3");
  AutoLeakage auto_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &approx_engine};
  for (const LeakageEngine* engine : engines) {
    SCOPED_TRACE(std::string(engine->name()));
    IndexOptions options;
    options.event_capacity = 64;
    LeakageIndex stepped(p, wm, engine, options);
    for (std::size_t i = 0; i < db.size(); ++i) {
      stepped.OnAppend(stored.Delta(i));
    }
    LeakageIndex caught(p, wm, engine, options);
    for (std::size_t i = 0; i < 100; ++i) caught.OnAppend(stored.Delta(i));
    ASSERT_TRUE(caught.QueryLocked(stored.rows()).ok());

    const LeakageIndex::EventBatch want = stepped.EventsAfter(0, 1000);
    const LeakageIndex::EventBatch got = caught.EventsAfter(0, 1000);
    EXPECT_EQ(want.dropped, db.size() - 64);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.covered, want.covered);
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t k = 0; k < want.events.size(); ++k) {
      const DeltaEvent& g = got.events[k];
      const DeltaEvent& w = want.events[k];
      EXPECT_EQ(g.record_id, w.record_id) << "event " << k;
      EXPECT_EQ(g.leakage, w.leakage) << "event " << k;
      EXPECT_EQ(g.skipped, w.skipped) << "event " << k;
      EXPECT_EQ(g.set_leakage, w.set_leakage) << "event " << k;
      EXPECT_EQ(g.argmax, w.argmax) << "event " << k;
    }
    EXPECT_EQ(caught.Stats().applied, stepped.Stats().applied);
  }
}

/// `ColumnBank::BoundInterned` bounds a record straight from the store's
/// interned cells; it must equal `BoundRecordLeakageColumnar` over the
/// record appended to a bank, bit for bit — through both cell-resolution
/// paths (interned ids, and the `Record` strings). The store grows one
/// record at a time, so the scratch bank first resolves p against an empty
/// record and a vocabulary holding none of p's pairs, then picks up each
/// pair as it arrives. p holds two values under N (resolved through the
/// pair map), and the records carry a zero-confidence match and a label p
/// lacks.
TEST(IncIndexTest, InternedBoundMatchesColumnarBound) {
  const Record p =
      Rec("{<N, alice, 1>, <N, bob, 1>, <C, rome, 1>, <P, 123, 1>}");
  const WeightModel wm = Weights("N=2,C=0.5,Q=4");
  const PreparedReference prep(p, wm);
  Database db;
  db.Add(Record{});
  db.Add(Rec("{<Q, x, 1>}"));
  db.Add(Rec("{<N, alice, 0>}"));
  db.Add(Rec("{<N, alice, 0.5>, <N, bob, 0.75>, <Q, x, 1>}"));
  db.Add(Rec("{<N, carol, 1>, <C, rome, 0.25>}"));
  db.Add(Rec("{<N, bob, 1>, <C, rome, 1>, <P, 123, 1>}"));
  for (const Record& r : SeededDb(50, 14)) db.Add(r);

  RecordStore store;
  ColumnBank scratch(prep);
  LeakageWorkspace ws;
  for (std::size_t id = 0; id < db.size(); ++id) {
    store.Append(db[id]);
    const InternedRecords rows = store.interned();
    const LeakageBounds got = scratch.BoundInterned(rows, id, &ws);

    ColumnBank interned(prep);
    interned.ExtendFrom(rows);
    LeakageWorkspace ws_interned;
    const LeakageBounds want =
        BoundRecordLeakageColumnar(interned, id, &ws_interned);
    EXPECT_EQ(got.lower, want.lower) << "record " << id;
    EXPECT_EQ(got.upper, want.upper) << "record " << id;

    ColumnBank strings(prep);
    strings.Append(db[id]);
    LeakageWorkspace ws_strings;
    const LeakageBounds from_strings =
        BoundRecordLeakageColumnar(strings, 0, &ws_strings);
    EXPECT_EQ(got.lower, from_strings.lower) << "record " << id;
    EXPECT_EQ(got.upper, from_strings.upper) << "record " << id;
  }
}

/// p's total weight overflows to +inf, so every record's bounds are (0, 0)
/// except those matching both X and Z: their recall mass overflows too,
/// their upper bound is NaN, and they fail to evaluate. Two sit in the
/// head of a 3,000-record catch-up: record 400 (17 attributes, which auto
/// sends to approx) and record 700 (2 attributes, which auto sends to
/// naive). The head evaluates non-finite bounds first, in id order, so the
/// index returns the cold scan's first error — for auto, approx's message,
/// not naive's.
TEST(IncIndexTest, NonFiniteHeadBoundsReturnTheColdScansFirstError) {
  const Record p = Rec(
      "{<N, alice, 1>, <C, rome, 1>, <P, 123, 1>, <X, x, 1>, <Z, z, 1>}");
  const WeightModel wm = Weights("X=1e308,Z=1e308");
  std::string wide = "{<X, x, 1>, <Z, z, 1>";
  for (int k = 0; k < 15; ++k) wide += ", <L" + std::to_string(k) + ", v, 0.5>";
  wide += "}";
  const Database seeded = SeededDb(3000, 13);
  Database db;
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    if (i == 400) {
      db.Add(Rec(wide));
    } else if (i == 700) {
      db.Add(Rec("{<X, x, 1>, <Z, z, 1>}"));
    } else {
      db.Add(seeded[i]);
    }
  }
  const Stored stored(db);
  const PreparedReference prep(p, wm);
  const ColumnBank bank = ColumnBank::FromDatabase(db, prep);
  AutoLeakage auto_engine;
  ApproxLeakage approx_engine;
  const LeakageEngine* engines[] = {&auto_engine, &approx_engine};
  for (const LeakageEngine* engine : engines) {
    SCOPED_TRACE(std::string(engine->name()));
    auto scan = SetLeakageColumnar(bank, *engine, nullptr);
    ASSERT_FALSE(scan.ok());
    auto first = BankRecordLeakage(bank, 400, *engine);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(scan.status().message(), first.status().message());
    auto later = BankRecordLeakage(bank, 700, *engine);
    ASSERT_FALSE(later.ok());
    if (engine == &auto_engine) {
      ASSERT_NE(later.status().message(), first.status().message())
          << "the two failures must be told apart";
    }

    LeakageIndex index(p, wm, engine);
    auto got = index.QueryLocked(stored.rows());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), scan.status().code());
    EXPECT_EQ(got.status().message(), scan.status().message());
    const IndexStats stats = index.Stats();
    EXPECT_TRUE(stats.poisoned);
    EXPECT_EQ(stats.covered, 401u);  // where the cold scan stops

    auto again = index.QueryLocked(stored.rows());
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().message(), scan.status().message());
  }
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
}

/// The feed holds indexes weakly: one its owner dropped (a cache eviction)
/// is pruned on the next publish, while the live one receives the delta.
TEST(IncFeedTest, DeadSinksArePrunedOnPublish) {
  const Database db = SeededDb(1, 23);
  const Stored stored(db);
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  auto a = std::make_shared<LeakageIndex>(p, wm, &engine);
  auto b = std::make_shared<LeakageIndex>(p, wm, &engine);
  feed.Register(a);
  feed.Register(b);
  EXPECT_EQ(feed.registered(), 2u);
  b.reset();  // simulate cache eviction: the feed holds indexes weakly

  feed.PublishAppend(stored.Delta(0));
  EXPECT_EQ(feed.registered(), 1u);
  EXPECT_EQ(a->Stats().covered, 1u);
}

/// Counts the blocks it has handed out and not yet taken back.
template <typename T>
struct CountingAllocator {
  using value_type = T;
  explicit CountingAllocator(int* live) : live(live) {}
  template <typename U>
  CountingAllocator(const CountingAllocator<U>& other) : live(other.live) {}
  T* allocate(std::size_t n) {
    ++*live;
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* ptr, std::size_t n) {
    --*live;
    std::allocator<T>().deallocate(ptr, n);
  }
  template <typename U>
  bool operator==(const CountingAllocator<U>& other) const {
    return live == other.live;
  }
  int* live;
};

/// A store nobody appends to never publishes, so registration prunes too:
/// an expired registration pins its index's shared block (object and
/// control block in one allocation) until the feed lets go of it.
TEST(IncFeedTest, RegisterPrunesExpiredIndexes) {
  const Record p = Rec(kReference);
  const WeightModel wm = Weights();
  AutoLeakage engine;
  ChangeFeed feed;
  int blocks = 0;
  const CountingAllocator<LeakageIndex> alloc(&blocks);
  feed.Register(std::allocate_shared<LeakageIndex>(alloc, p, wm, &engine));
  EXPECT_EQ(blocks, 1) << "the expired registration pins the block";
  auto live = std::allocate_shared<LeakageIndex>(alloc, p, wm, &engine);
  feed.Register(live);
  EXPECT_EQ(blocks, 1) << "registering did not release the expired block";
  EXPECT_EQ(feed.registered(), 1u);
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
}

}  // namespace
}  // namespace infoleak::inc
