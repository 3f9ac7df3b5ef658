// The columnar evaluation plane must be a pure representation change:
// every engine's columnar path (ColumnBank + array kernels) has to return
// *bit-identical* results to its prepared path — the bank stores the same
// canonical attribute order and resolves the same weights, and the kernels
// keep every reduction in the scalar accumulation order. These tests sweep
// randomized (r, p) pairs — unit, random, and all-zero weights, over-cap
// records, fully disjoint records — through all four engines and assert
// equality with EXPECT_EQ on doubles, not EXPECT_NEAR. They also pin the
// scalar-vs-SIMD kernel contract, incremental bank construction, the
// generalized aligner's id-space §3.1 rewrite, the sharded/cancellable
// columnar scans, and workspace pointer stability.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "anon/bridge.h"
#include "core/bounds.h"
#include "core/kernels.h"
#include "core/leakage.h"
#include "store/record_store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace infoleak {
namespace {

struct RandomCase {
  Record p;
  Record r;
};

/// p has n_ref unit-confidence attributes; r copies each with probability
/// 0.6 (30% perturbed), plus bogus attributes, confidences in [0, max_conf].
RandomCase MakeRandomCase(Rng* rng, std::size_t n_ref, double max_conf) {
  RandomCase out;
  for (std::size_t i = 0; i < n_ref; ++i) {
    std::string label = StrCat("L", std::to_string(i));
    std::string value = StrCat("v", std::to_string(i));
    out.p.Insert(Attribute(label, value, 1.0));
    if (rng->Bernoulli(0.6)) {
      std::string got = rng->Bernoulli(0.3) ? value + "_wrong" : value;
      out.r.Insert(Attribute(label, got, rng->Uniform(0.0, max_conf)));
    }
    if (rng->Bernoulli(0.4)) {
      out.r.Insert(Attribute(StrCat("B", std::to_string(i)), "bogus",
                             rng->Uniform(0.0, max_conf)));
    }
  }
  return out;
}

WeightModel RandomWeights(Rng* rng, const RandomCase& c) {
  WeightModel wm;
  for (const auto& a : c.p) {
    EXPECT_TRUE(wm.SetWeight(a.label, rng->Uniform(0.1, 1.0)).ok());
  }
  for (const auto& a : c.r) {
    if (wm.explicit_weights().count(a.label) == 0) {
      EXPECT_TRUE(wm.SetWeight(a.label, rng->Uniform(0.1, 1.0)).ok());
    }
  }
  return wm;
}

/// Asserts the columnar and prepared paths of `engine` agree bit-for-bit —
/// same ok-ness, and on success the exact same double — on all three
/// measures for (r, p, wm).
void ExpectColumnarBitIdentical(const LeakageEngine& engine, const Record& r,
                                const Record& p, const WeightModel& wm) {
  ASSERT_TRUE(engine.SupportsPrepared());
  ASSERT_TRUE(engine.SupportsColumnar());
  const PreparedReference ref(p, wm);
  PreparedRecord pr(r, ref);
  ColumnBank bank(ref);
  bank.Append(r);
  const ColumnRecordView v = bank.view(0);
  LeakageWorkspace ws;
  LeakageWorkspace cws;

  const auto lp = engine.RecordLeakagePrepared(pr, ref, &ws);
  const auto lc = engine.RecordLeakageColumnar(v, ref, &cws);
  ASSERT_EQ(lp.ok(), lc.ok()) << "r=" << r.ToString() << " p=" << p.ToString();
  if (lp.ok()) {
    EXPECT_EQ(*lp, *lc) << "r=" << r.ToString();
  }

  const auto pp = engine.ExpectedPrecisionPrepared(pr, ref, &ws);
  const auto pc = engine.ExpectedPrecisionColumnar(v, ref, &cws);
  ASSERT_EQ(pp.ok(), pc.ok());
  if (pp.ok()) {
    EXPECT_EQ(*pp, *pc) << "r=" << r.ToString();
  }

  const auto rp = engine.ExpectedRecallPrepared(pr, ref, &ws);
  const auto rc = engine.ExpectedRecallColumnar(v, ref, &cws);
  ASSERT_EQ(rp.ok(), rc.ok());
  if (rp.ok()) {
    EXPECT_EQ(*rp, *rc) << "r=" << r.ToString();
  }

  // Bounds ride along: the columnar bounds kernel must reproduce the
  // string-path bracket exactly.
  const LeakageBounds bs = BoundRecordLeakage(r, p, wm);
  const LeakageBounds bc = BoundRecordLeakageColumnar(bank, 0, &cws);
  EXPECT_EQ(bs.lower, bc.lower) << "r=" << r.ToString();
  EXPECT_EQ(bs.upper, bc.upper) << "r=" << r.ToString();
}

// ---------------------------------------------------------------------------
// Per-engine bit-identity sweeps
// ---------------------------------------------------------------------------

class ColumnarEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarEquivalence, UnitWeightsAllEngines) {
  Rng rng(GetParam() * 6151);
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  ApproxLeakage order1(1);
  ApproxLeakage order2(2);
  AutoLeakage dispatch;
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = MakeRandomCase(&rng, 1 + rng.NextBounded(7), 1.0);
    ExpectColumnarBitIdentical(naive, c.r, c.p, unit);
    ExpectColumnarBitIdentical(exact, c.r, c.p, unit);
    ExpectColumnarBitIdentical(order1, c.r, c.p, unit);
    ExpectColumnarBitIdentical(order2, c.r, c.p, unit);
    ExpectColumnarBitIdentical(dispatch, c.r, c.p, unit);
  }
}

TEST_P(ColumnarEquivalence, RandomWeightsAllEngines) {
  Rng rng(GetParam() * 13007);
  NaiveLeakage naive;
  ExactLeakage exact;  // rejects non-constant weights on both paths
  ApproxLeakage approx;
  AutoLeakage dispatch;
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = MakeRandomCase(&rng, 1 + rng.NextBounded(7), 0.9);
    WeightModel wm = RandomWeights(&rng, c);
    ExpectColumnarBitIdentical(naive, c.r, c.p, wm);
    ExpectColumnarBitIdentical(exact, c.r, c.p, wm);
    ExpectColumnarBitIdentical(approx, c.r, c.p, wm);
    ExpectColumnarBitIdentical(dispatch, c.r, c.p, wm);
  }
}

TEST(ColumnarEquivalence, EdgeRecords) {
  Rng rng(99);
  WeightModel unit;
  RandomCase c = MakeRandomCase(&rng, 4, 0.8);
  NaiveLeakage naive;
  ExactLeakage exact;
  ApproxLeakage approx;
  AutoLeakage dispatch;

  // Empty r.
  Record empty;
  for (const LeakageEngine* e :
       {static_cast<const LeakageEngine*>(&naive),
        static_cast<const LeakageEngine*>(&exact),
        static_cast<const LeakageEngine*>(&approx),
        static_cast<const LeakageEngine*>(&dispatch)}) {
    ExpectColumnarBitIdentical(*e, empty, c.p, unit);
  }

  // r entirely disjoint from p (every id resolves to the kNoSymbol
  // sentinel in the bank's label column; every match_pos is kNoMatch).
  Record disjoint;
  disjoint.Insert(Attribute("X1", "y1", 0.7));
  disjoint.Insert(Attribute("X2", "y2", 0.4));
  ExpectColumnarBitIdentical(exact, disjoint, c.p, unit);
  ExpectColumnarBitIdentical(approx, disjoint, c.p, unit);
  ExpectColumnarBitIdentical(naive, disjoint, c.p, unit);

  // r == p exactly.
  ExpectColumnarBitIdentical(exact, c.p, c.p, unit);
  ExpectColumnarBitIdentical(approx, c.p, c.p, unit);
}

TEST(ColumnarEquivalence, OverCapRecordFailsIdenticallyOnBothPaths) {
  // 18 attributes exceeds NaiveLeakage's default 2^|r| cap: the columnar
  // path must refuse exactly when the prepared path refuses.
  WeightModel unit;
  Record p, r;
  for (int i = 0; i < 18; ++i) {
    std::string label = StrCat("L", std::to_string(i));
    p.Insert(Attribute(label, "v", 1.0));
    r.Insert(Attribute(label, "v", 0.5));
  }
  NaiveLeakage naive(16);
  ExpectColumnarBitIdentical(naive, r, p, unit);  // both fail, same ok-ness

  const PreparedReference ref(p, unit);
  ColumnBank bank(ref);
  bank.Append(r);
  LeakageWorkspace ws;
  const auto res = naive.RecordLeakageColumnar(bank.view(0), ref, &ws);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
}

TEST(ColumnarEquivalence, AllZeroWeights) {
  // A uniform weight of exactly 0 exercises the 0/0-convention branch that
  // once split naive and exact (see UniformWeightIsZero); the columnar
  // path must take the same branch.
  WeightModel zero;
  Record p, r;
  for (int i = 0; i < 3; ++i) {
    std::string label = StrCat("L", std::to_string(i));
    ASSERT_TRUE(zero.SetWeight(label, 0.0).ok());
    p.Insert(Attribute(label, "v", 1.0));
    r.Insert(Attribute(label, "v", 0.5));
  }
  NaiveLeakage naive;
  ExactLeakage exact;
  AutoLeakage dispatch;
  ExpectColumnarBitIdentical(naive, r, p, zero);
  ExpectColumnarBitIdentical(exact, r, p, zero);
  ExpectColumnarBitIdentical(dispatch, r, p, zero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------------
// Bank construction: FromDatabase == incremental Append/ExtendFrom
// ---------------------------------------------------------------------------

TEST(ColumnBankTest, IncrementalExtendMatchesFromDatabase) {
  Rng rng(1234);
  WeightModel unit;
  RandomCase base = MakeRandomCase(&rng, 6, 1.0);
  const PreparedReference ref(base.p, unit);

  Database db;
  for (int i = 0; i < 30; ++i) {
    db.Add(MakeRandomCase(&rng, 1 + rng.NextBounded(6), 1.0).r);
  }

  const ColumnBank whole = ColumnBank::FromDatabase(db, ref);
  ColumnBank grown(ref);
  for (std::size_t i = 0; i < 10; ++i) grown.Append(db[i]);
  grown.ExtendFrom(db);  // records [10, 30)
  ASSERT_EQ(whole.size(), db.size());
  ASSERT_EQ(grown.size(), db.size());
  EXPECT_EQ(whole.attributes(), grown.attributes());
  EXPECT_EQ(whole.max_record_size(), grown.max_record_size());

  AutoLeakage engine;
  const auto a = BatchLeakageColumnar(whole, engine);
  const auto b = BatchLeakageColumnar(grown, engine);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]) << "record " << i;
  }
}

/// Column-for-column equality of two banks over the same records.
void ExpectSameColumns(const ColumnBank& want, const ColumnBank& got) {
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(want.attributes(), got.attributes());
  EXPECT_EQ(want.max_record_size(), got.max_record_size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ColumnRecordView w = want.view(i);
    const ColumnRecordView g = got.view(i);
    ASSERT_EQ(w.size, g.size) << "record " << i;  // same offsets
    EXPECT_EQ(w.uniform_weight, g.uniform_weight) << "record " << i;
    EXPECT_EQ(w.common_weight, g.common_weight) << "record " << i;
    for (std::size_t j = 0; j < w.size; ++j) {
      EXPECT_EQ(w.conf[j], g.conf[j]) << "record " << i << " cell " << j;
      EXPECT_EQ(w.weight[j], g.weight[j]) << "record " << i << " cell " << j;
      EXPECT_EQ(w.match_pos[j], g.match_pos[j])
          << "record " << i << " cell " << j;
    }
  }
}

TEST(ColumnBankTest, ExtendFromStoreIdsMatchesFromDatabase) {
  // p holds a label (N) and a value (L1=v1b) the store has not seen when
  // the bank is first built; later appends bring them in, together with a
  // label new to both the store and p (Q).
  const Record p{{"L0", "v0"}, {"L1", "v1"}, {"L1", "v1b", 0.5},
                 {"L2", "v2"}, {"N", "late"}};
  for (const char* spec : {"", "L0=2,L1=0.5,Q=4,B1=3"}) {
    auto wm = WeightModel::Parse(spec);
    ASSERT_TRUE(wm.ok()) << spec;
    const PreparedReference ref(p, *wm);
    Rng rng(99);
    RecordStore store;
    for (int i = 0; i < 25; ++i) {  // labels L*/B*, values v*/bogus only
      store.Append(MakeRandomCase(&rng, 1 + rng.NextBounded(4), 1.0).r);
    }
    ColumnBank bank(ref);
    bank.ExtendFrom(store.interned());
    ExpectSameColumns(ColumnBank::FromDatabase(store.database(), ref), bank);

    store.Append(Record{{"N", "late", 0.7}, {"L0", "v0", 0.25}});
    store.Append(Record{{"Q", "q1", 0.5}, {"L1", "v1b", 0.75}});
    store.Append(Record{{"L1", "v1", 0.5}, {"Q", "q2", 1.0}});
    bank.AppendInterned(store.interned());  // one record at a time
    bank.ExtendFrom(store.interned());      // then the rest
    for (int i = 0; i < 10; ++i) {
      store.Append(MakeRandomCase(&rng, 1 + rng.NextBounded(4), 1.0).r);
    }
    bank.ExtendFrom(store.interned());
    ExpectSameColumns(ColumnBank::FromDatabase(store.database(), ref), bank);
    // Cells in canonical order: (N, late) is record 25's second cell and
    // (L1, v1b) record 26's first; both pairs entered the store late.
    EXPECT_EQ(bank.view(25).match_pos[1], 4u);
    EXPECT_EQ(bank.view(26).match_pos[0], 2u);
  }
}

/// Aligns every entity of `entities` to each reference with one aligner and
/// checks the bank it fills against appending
/// AlignGeneralizedToReference(e, p, gc) record by record.
void ExpectAlignerMatchesRecordPath(const Database& entities,
                                    const std::vector<Record>& references,
                                    const WeightModel& weights, double gc) {
  GeneralizedAligner aligner(entities, gc);
  ASSERT_EQ(aligner.size(), entities.size());
  for (const Record& p : references) {
    SCOPED_TRACE("p = " + p.ToString() + ", gc = " + std::to_string(gc));
    const PreparedReference ref(p, weights);
    ColumnBank want(ref);
    for (const Record& e : entities) {
      want.Append(AlignGeneralizedToReference(e, p, gc));
    }
    ColumnBank got(ref);
    got.ExtendFrom(aligner.AlignTo(p));
    ExpectSameColumns(want, got);
  }
}

TEST(GeneralizedAlignerTest, HandBuiltCasesMatchRecordPath) {
  Database entities;
  // Several values under one label; "11*" and "1*1" both rewrite onto
  // "111", which the entity also holds: three-way max-confidence merge.
  entities.Add(Record{{"Zip", "11*", 0.9},
                      {"Zip", "1*1", 0.2},
                      {"Zip", "111", 0.3},
                      {"Zip", "22*", 0.8}});
  // "[20-30)" sorts after "99" but its rewrite "25" sorts before it.
  entities.Add(Record{{"Age", "[20-30)", 0.7}, {"Age", "99", 0.6}});
  // "*99" sorts before "500" but its rewrite "799" sorts after it.
  entities.Add(Record{{"Zip", "*99", 0.5}, {"Zip", "500", 0.4}});
  // A label no reference holds, beside a rewritten one.
  entities.Add(Record{{"Disease", "Flu", 0.9},
                      {"Disease", "Cold", 1.0},
                      {"Zip", "11*", 0.6},
                      {"Age", ">=20", 0.95}});
  entities.Add(Record{});  // empty entity
  // Nothing to rewrite; exact matches kept at full confidence.
  entities.Add(Record{{"Zip", "111"}, {"Age", "25"}});
  entities.Add(Record{{"Zip", "2**", 1.0}, {"Q", "q", 0.5}});

  const std::vector<Record> references = {
      // Values absent from every entity's vocabulary ("25", "799" only
      // appear through rewrites), and a label (Name) no entity carries.
      Record{{"Name", "Ann"}, {"Zip", "111"}, {"Age", "25"}},
      Record{{"Zip", "799"}, {"Age", "99"}},
      // Several values under one label: the first covered one in p's
      // canonical order wins, as in AlignGeneralizedToReference.
      Record{{"Zip", "112"}, {"Zip", "111"}, {"Zip", "199"}},
      Record{{"Disease", "Flu"}},
      Record{},
  };
  auto skewed = WeightModel::Parse("Zip=2,Age=0.5,Name=3");
  ASSERT_TRUE(skewed.ok());
  for (const WeightModel& weights : {WeightModel(), *skewed}) {
    // gc 1.5 drives rewritten confidences past 1: Record::Insert clamps.
    for (const double gc : {1.0, 0.4, 1.5}) {
      ExpectAlignerMatchesRecordPath(entities, references, weights, gc);
    }
  }
}

TEST(GeneralizedAlignerTest, RandomGeneralizedEntitiesMatchRecordPath) {
  // Generalized and exact values over two quasi-identifiers, so rewrites,
  // collisions and reorderings all occur at random.
  const std::vector<std::string> zips = {"111", "112", "121", "211", "11*",
                                         "1*1", "*11", "1**", "***", "2*1"};
  const std::vector<std::string> ages = {"15", "25", "35", "[10-30)",
                                         "[20-40)", ">=20", "≥30", "x"};
  Rng rng(2024);
  auto draw = [&](const std::vector<std::string>& pool) {
    return pool[rng.NextBounded(pool.size())];
  };
  Database entities;
  for (int i = 0; i < 60; ++i) {
    Record e;
    const uint64_t cells = rng.NextBounded(7);
    for (uint64_t c = 0; c < cells; ++c) {
      const uint64_t kind = rng.NextBounded(3);
      if (kind == 0) {
        e.Insert(Attribute("Zip", draw(zips), rng.NextDouble()));
      } else if (kind == 1) {
        e.Insert(Attribute("Age", draw(ages), rng.NextDouble()));
      } else {
        e.Insert(Attribute("D", StrCat("d", std::to_string(c)), 0.5));
      }
    }
    entities.Add(std::move(e));
  }
  std::vector<Record> references;
  for (int i = 0; i < 20; ++i) {
    Record p;
    for (uint64_t c = rng.NextBounded(4); c > 0; --c) {
      if (rng.Bernoulli(0.6)) {
        p.Insert(Attribute("Zip", std::to_string(111 + 10 * rng.NextBounded(2) +
                                                 100 * rng.NextBounded(2))));
      } else {
        p.Insert(Attribute("Age", std::to_string(15 + 10 * rng.NextBounded(4))));
      }
    }
    references.push_back(std::move(p));
  }
  for (const double gc : {1.0, 0.4}) {
    ExpectAlignerMatchesRecordPath(entities, references, WeightModel(), gc);
  }
}

// ---------------------------------------------------------------------------
// Columnar scans: serial == sharded == record-at-a-time, cancellation
// ---------------------------------------------------------------------------

TEST(ColumnarScanTest, SerialAndShardedMatchPreparedScan) {
  Rng rng(777);
  WeightModel unit;
  RandomCase base = MakeRandomCase(&rng, 6, 1.0);
  const PreparedReference ref(base.p, unit);
  Database db;
  for (int i = 0; i < 101; ++i) {
    db.Add(MakeRandomCase(&rng, 1 + rng.NextBounded(6), 1.0).r);
  }
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  AutoLeakage engine;

  std::ptrdiff_t want_arg = -2;
  const auto want = SetLeakageArgMax(db, ref, engine, &want_arg);
  ASSERT_TRUE(want.ok());

  std::ptrdiff_t serial_arg = -2;
  const auto serial = SetLeakageColumnar(bank, engine, &serial_arg);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*serial, *want);
  EXPECT_EQ(serial_arg, want_arg);

  ColumnScanOptions sharded;
  sharded.num_threads = 4;
  std::ptrdiff_t par_arg = -2;
  const auto par = SetLeakageColumnar(bank, engine, &par_arg, sharded);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(*par, *want);
  EXPECT_EQ(par_arg, want_arg);
}

TEST(ColumnarScanTest, EmptyBankIsZeroWithNegativeArgmax) {
  WeightModel unit;
  Record p;
  p.Insert(Attribute("N", "x", 1.0));
  const PreparedReference ref(p, unit);
  ColumnBank bank(ref);
  AutoLeakage engine;
  std::ptrdiff_t argmax = 5;
  const auto got = SetLeakageColumnar(bank, engine, &argmax);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 0.0);
  EXPECT_EQ(argmax, -1);
}

TEST(ColumnarScanTest, CancellationAbortsWithDeadlineExceeded) {
  Rng rng(31);
  WeightModel unit;
  RandomCase base = MakeRandomCase(&rng, 5, 1.0);
  const PreparedReference ref(base.p, unit);
  Database db;
  for (int i = 0; i < 20; ++i) {
    db.Add(MakeRandomCase(&rng, 1 + rng.NextBounded(5), 1.0).r);
  }
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  AutoLeakage engine;

  ColumnScanOptions cancelled;
  cancelled.cancel = [] { return true; };
  const auto aborted = SetLeakageColumnar(bank, engine, nullptr, cancelled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsDeadlineExceeded())
      << aborted.status().ToString();

  // A cancel callback that never fires must not perturb the result.
  ColumnScanOptions armed;
  armed.cancel = [] { return false; };
  std::ptrdiff_t a1 = -2, a2 = -2;
  const auto plain = SetLeakageColumnar(bank, engine, &a1);
  const auto polled = SetLeakageColumnar(bank, engine, &a2, armed);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(*plain, *polled);
  EXPECT_EQ(a1, a2);
}

TEST(ColumnarScanTest, EngineWithoutColumnarPathIsRefused) {
  // A stub engine that supports nothing: the columnar scan must refuse it
  // with NotSupported instead of silently falling back.
  class StubEngine : public LeakageEngine {
   public:
    std::string_view name() const override { return "stub"; }
    Result<double> RecordLeakage(const Record&, const Record&,
                                 const WeightModel&) const override {
      return 0.5;
    }
    Result<double> ExpectedPrecision(const Record&, const Record&,
                                     const WeightModel&) const override {
      return 0.5;
    }
  };
  WeightModel unit;
  Record p;
  p.Insert(Attribute("N", "x", 1.0));
  const PreparedReference ref(p, unit);
  ColumnBank bank(ref);
  StubEngine stub;
  const auto got = SetLeakageColumnar(bank, stub);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotSupported)
      << got.status().ToString();
}

// ---------------------------------------------------------------------------
// Kernel dispatch: the wide table must reproduce the scalar reference
// bit-for-bit (the recurrence is element-wise independent; reductions stay
// scalar-ordered).
// ---------------------------------------------------------------------------

TEST(KernelTest, WideExactSumBitIdenticalToScalar) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t rn = 1 + rng.NextBounded(40);
    const std::size_t pn = 1 + rng.NextBounded(12);
    std::vector<double> rconf(rn);
    for (auto& c : rconf) c = rng.Uniform(0.0, 1.0);
    std::vector<double> match_conf(pn, 0.0);
    std::vector<uint32_t> match_rpos(pn, 0xFFFFFFFFu);
    for (std::size_t j = 0; j < pn; ++j) {
      if (rng.Bernoulli(0.6)) {
        const auto pos = static_cast<uint32_t>(rng.NextBounded(rn));
        match_rpos[j] = pos;
        match_conf[j] = rconf[pos];
      }
    }
    const double m = static_cast<double>(pn);
    std::vector<double> poly_s(rn + 1), poly_w(rn + 1);
    const double scalar = kern::Scalar().exact_sum(
        rconf.data(), rn, match_conf.data(), match_rpos.data(), pn, m, 2.0,
        poly_s.data());
    const double wide = kern::Wide().exact_sum(
        rconf.data(), rn, match_conf.data(), match_rpos.data(), pn, m, 2.0,
        poly_w.data());
    EXPECT_EQ(scalar, wide) << "rn=" << rn << " pn=" << pn
                            << " trial=" << trial;
  }
}

TEST(KernelTest, DispatchTablesAreWellFormed) {
  EXPECT_EQ(kern::Scalar().name, "scalar");
  const std::string_view wide = kern::Wide().name;
  EXPECT_TRUE(wide == "scalar" || wide == "avx2" || wide == "avx512")
      << wide;
  // Active() is either the scalar table (forced) or the wide table.
  const std::string_view active = kern::Active().name;
  if (kern::ForcedScalar()) {
    EXPECT_EQ(active, "scalar");
  } else {
    EXPECT_EQ(active, wide);
  }
}

// ---------------------------------------------------------------------------
// Workspace steady state: after ReserveFor, evaluating any record of the
// bank reallocates nothing — every buffer keeps its address.
// ---------------------------------------------------------------------------

TEST(ColumnarWorkspaceTest, ReserveForPinsEveryBufferAcrossEvaluations) {
  Rng rng(555);
  WeightModel unit;
  RandomCase base = MakeRandomCase(&rng, 8, 1.0);
  const PreparedReference ref(base.p, unit);
  Database db;
  for (int i = 0; i < 40; ++i) {
    db.Add(MakeRandomCase(&rng, 1 + rng.NextBounded(8), 1.0).r);
  }
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  AutoLeakage engine;

  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), ref.size());
  const double* poly = ws.poly.data();
  const double* conf = ws.conf.data();
  const double* weight = ws.weight.data();
  const double* match_conf = ws.match_conf.data();
  const uint32_t* match_rpos = ws.match_rpos.data();
  const uint8_t* matched = ws.matched.data();

  for (std::size_t i = 0; i < bank.size(); ++i) {
    const auto l = engine.RecordLeakageColumnar(bank.view(i), ref, &ws);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
  }
  EXPECT_EQ(poly, ws.poly.data());
  EXPECT_EQ(conf, ws.conf.data());
  EXPECT_EQ(weight, ws.weight.data());
  EXPECT_EQ(match_conf, ws.match_conf.data());
  EXPECT_EQ(match_rpos, ws.match_rpos.data());
  EXPECT_EQ(matched, ws.matched.data());
}

// ---------------------------------------------------------------------------
// Concurrency: concurrent SetLeakColumnar queries racing an appender must
// be data-race-free (bank_mu serializes catch-up against scans) and every
// returned value must be a leakage the store could have held at some
// consistent snapshot. Named Columnar* so the TSan CI pass picks it up.
// ---------------------------------------------------------------------------

TEST(ColumnarConcurrencyTest, ConcurrentQueriesAndAppends) {
  Rng rng(4242);
  WeightModel unit;
  RandomCase base = MakeRandomCase(&rng, 5, 1.0);

  RecordStore store;
  std::vector<Record> extra;
  for (int i = 0; i < 48; ++i) {
    Record r = MakeRandomCase(&rng, 1 + rng.NextBounded(5), 1.0).r;
    if (r.empty()) r.Insert(Attribute("L0", "v0", 0.5));
    if (i < 16) {
      store.Append(r);
    } else {
      extra.push_back(std::move(r));
    }
  }

  const PreparedReference ref(base.p, unit);
  ColumnBank bank(ref);
  std::shared_mutex bank_mu;
  AutoLeakage engine;

  std::atomic<bool> failed{false};
  std::thread appender([&] {
    for (auto& r : extra) store.Append(std::move(r));
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int q = 0; q < 8; ++q) {
        std::ptrdiff_t argmax = -2;
        const auto l =
            store.SetLeakColumnar(bank, bank_mu, engine, &argmax);
        if (!l.ok() || !(*l >= 0.0 && *l <= 1.0)) failed.store(true);
      }
    });
  }
  appender.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(failed.load());

  // Quiescent: the final scan must agree bit-for-bit with the
  // record-at-a-time scan over the full store.
  std::ptrdiff_t want_arg = -2, got_arg = -2;
  const auto want = store.SetLeak(ref, engine, &want_arg);
  const auto got = store.SetLeakColumnar(bank, bank_mu, engine, &got_arg);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  EXPECT_EQ(want_arg, got_arg);
  EXPECT_EQ(bank.size(), store.size());
}

TEST(ColumnarConcurrencyTest, BankFromWrongStoreIsRejected) {
  WeightModel unit;
  Record p;
  p.Insert(Attribute("N", "x", 1.0));
  const PreparedReference ref(p, unit);

  // Bank grown past the store's size: the serving path must refuse it
  // rather than scan stale columns.
  RecordStore small;
  Record r;
  r.Insert(Attribute("N", "x", 0.5));
  Database big;
  big.Add(r);
  big.Add(r);
  ColumnBank bank = ColumnBank::FromDatabase(big, ref);
  std::shared_mutex bank_mu;
  AutoLeakage engine;
  const auto got = small.SetLeakColumnar(bank, bank_mu, engine);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal)
      << got.status().ToString();
}

}  // namespace
}  // namespace infoleak
