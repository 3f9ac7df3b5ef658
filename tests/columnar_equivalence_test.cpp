// The column bank must be a pure representation change: evaluating a bank
// record has to return *bit-identical* results to the Record entry points —
// the bank stores the same canonical attribute order and resolves cells by
// the same rule as the entry points' one-record view, and the kernels keep
// every reduction in the scalar accumulation order. These tests sweep
// randomized (r, p) pairs — unit, random, and all-zero weights, over-cap
// records, fully disjoint records — through all four engines and assert
// equality with EXPECT_EQ on doubles, not EXPECT_NEAR. They also pin the
// scalar-vs-SIMD kernel contract, incremental bank construction, the
// generalized aligner's id-space §3.1 rewrite, the sharded/cancellable
// columnar scans, and workspace pointer stability.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "anon/bridge.h"
#include "core/bounds.h"
#include "core/kernels.h"
#include "core/leakage.h"
#include "inc/leakage_index.h"
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

/// Asserts the bank view and the Record entry points of `engine` agree
/// bit-for-bit — same ok-ness, and on success the exact same double — on
/// all three measures for (r, p, wm).
void ExpectColumnarBitIdentical(const LeakageEngine& engine, const Record& r,
                                const Record& p, const WeightModel& wm) {
  const PreparedReference ref(p, wm);
  ColumnBank bank(ref);
  bank.Append(r);
  const ColumnRecordView v = bank.view(0);
  LeakageWorkspace cws;

  const auto lp = engine.RecordLeakage(r, p, wm);
  const auto lc = engine.RecordLeakageColumnar(v, ref, &cws);
  ASSERT_EQ(lp.ok(), lc.ok()) << "r=" << r.ToString() << " p=" << p.ToString();
  if (lp.ok()) {
    EXPECT_EQ(*lp, *lc) << "r=" << r.ToString();
  }

  const auto pp = engine.ExpectedPrecision(r, p, wm);
  const auto pc = engine.ExpectedPrecisionColumnar(v, ref, &cws);
  ASSERT_EQ(pp.ok(), pc.ok());
  if (pp.ok()) {
    EXPECT_EQ(*pp, *pc) << "r=" << r.ToString();
  }

  const auto rp = engine.ExpectedRecall(r, p, wm);
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
  // 18 attributes exceeds NaiveLeakage's default 2^|r| cap: the bank view
  // must refuse exactly when the Record entry point refuses.
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
  // once split naive and exact (see UniformWeightIsZero); the bank view
  // must take the same branch as the Record entry point.
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
    bank.AppendInterned(store.interned(), bank.size());  // one record
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

TEST(ColumnBankTest, ClearedBankHoldsOneStoreRecordLikeAppend) {
  // The leakage index's scratch: cleared before every record, so it holds
  // one record at a time, while its resolution of p into the store
  // vocabulary carries across clears and catches pairs that enter late.
  const Record p{{"L0", "v0"}, {"L1", "v1"}, {"L1", "v1b", 0.5},
                 {"L2", "v2"}, {"N", "late"}};
  for (const char* spec : {"", "L0=2,L1=0.5,Q=4,B1=3"}) {
    auto wm = WeightModel::Parse(spec);
    ASSERT_TRUE(wm.ok()) << spec;
    const PreparedReference ref(p, *wm);
    Rng rng(7);
    RecordStore store;
    ColumnBank scratch(ref);
    for (int i = 0; i < 40; ++i) {
      if (i == 20) {
        store.Append(Record{{"N", "late", 0.7}, {"L0", "v0", 0.25}});
      } else if (i == 30) {
        store.Append(Record{{"Q", "q1", 0.5}, {"L1", "v1b", 0.75}});
      } else {
        store.Append(MakeRandomCase(&rng, 1 + rng.NextBounded(4), 1.0).r);
      }
      const std::size_t id = store.size() - 1;
      scratch.Clear();
      scratch.AppendInterned(store.interned(), id);
      ColumnBank one(ref);
      one.Append(store.database()[id]);
      ExpectSameColumns(one, scratch);
    }
    EXPECT_EQ(scratch.size(), 1u);
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

/// ExpectSameColumns as a predicate: true iff both banks hold byte-identical
/// columns and per-record weight summaries.
bool SameColumns(const ColumnBank& a, const ColumnBank& b) {
  if (a.size() != b.size() || a.attributes() != b.attributes()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ColumnRecordView x = a.view(i);
    const ColumnRecordView y = b.view(i);
    if (x.size != y.size || x.uniform_weight != y.uniform_weight ||
        x.common_weight != y.common_weight) {
      return false;
    }
    for (std::size_t j = 0; j < x.size; ++j) {
      if (x.conf[j] != y.conf[j] || x.weight[j] != y.weight[j] ||
          x.match_pos[j] != y.match_pos[j]) {
        return false;
      }
    }
  }
  return true;
}

TEST(GeneralizedAlignerTest, EqualClassKeysFillIdenticalBanks) {
  Database entities;
  // Several values under one label, exact and generalized, so a person's
  // rewritten value sorts before, between or after the values it lands
  // among ("*1*" and "1**" sort before every digit).
  entities.Add(Record{{"Zip", "11*", 0.9},
                      {"Zip", "105", 0.4},
                      {"Zip", "120", 0.7},
                      {"Age", "[20-30)", 0.6},
                      {"Age", "40", 0.5}});
  entities.Add(Record{{"Zip", "1**", 0.3},
                      {"Zip", "115", 0.8},
                      {"Age", "[20-40)", 0.5}});
  entities.Add(Record{{"Zip", "11*", 0.2},
                      {"Zip", "112", 0.6},
                      {"Age", "25", 0.9},
                      {"Age", "99", 0.1}});
  entities.Add(Record{{"Zip", "2**", 1.0},
                      {"Age", "[30-40)", 0.7},
                      {"Disease", "Flu", 0.8}});
  entities.Add(Record{{"Zip", "*1*", 0.5}, {"Zip", "999", 0.9}});
  entities.Add(Record{});
  // Persons are table rows: one value per column. Some values no entity
  // holds ("110", "000", "7"), some one holds exactly ("112", "40"). "11*"
  // is held exactly and covered by the same values that cover "110", so
  // only its kept cell tells the two apart.
  const std::vector<std::string> zips = {
      "000", "100", "105", "110", "111", "112", "113", "115",
      "119", "11*", "120", "150", "210", "250", "311", "999"};
  const std::vector<std::string> ages = {"7",  "10", "20", "25", "29",
                                         "35", "40", "45", "99"};
  std::vector<Record> persons;
  for (const std::string& zip : zips) {
    for (const std::string& age : ages) {
      persons.push_back(Record{{"Name", StrCat("P", std::to_string(
                                                        persons.size()))},
                               {"Zip", zip},
                               {"Age", age}});
    }
  }

  for (const double gc : {1.0, 0.4}) {
    SCOPED_TRACE("gc = " + std::to_string(gc));
    GeneralizedAligner aligner(entities, gc);
    const WeightModel unit;
    std::vector<std::vector<uint32_t>> keys;
    std::vector<std::unique_ptr<PreparedReference>> refs;
    std::vector<ColumnBank> banks;
    for (const Record& p : persons) {
      std::vector<uint32_t> key;
      for (const Attribute& a : p) {
        const std::vector<uint32_t> part = aligner.ClassKey(a.label, a.value);
        key.insert(key.end(), part.begin(), part.end());
      }
      keys.push_back(std::move(key));
      refs.push_back(std::make_unique<PreparedReference>(p, unit));
      banks.emplace_back(*refs.back());
      banks.back().ExtendFrom(aligner.AlignTo(p));
    }
    std::size_t shared = 0;     // pairs of distinct persons with one key
    std::size_t different = 0;  // pairs whose banks differ
    for (std::size_t i = 0; i < persons.size(); ++i) {
      for (std::size_t j = i + 1; j < persons.size(); ++j) {
        const bool same_key = keys[i] == keys[j];
        const bool same_bank = SameColumns(banks[i], banks[j]);
        EXPECT_TRUE(!same_key || same_bank)
            << persons[i].ToString() << " and " << persons[j].ToString()
            << " share a class key but fill different banks";
        shared += same_key ? 1 : 0;
        different += same_bank ? 0 : 1;
      }
    }
    // The classes are neither all singletons nor one class.
    EXPECT_GT(shared, 0u);
    EXPECT_GT(different, 0u);
  }
}

// ---------------------------------------------------------------------------
// Columnar scans: bank scan == Database scan
// ---------------------------------------------------------------------------

TEST(ColumnarScanTest, SerialScanMatchesPreparedScan) {
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
  const auto want = SetLeakage(db, base.p, unit, engine, &want_arg);
  ASSERT_TRUE(want.ok());

  std::ptrdiff_t serial_arg = -2;
  const auto serial = SetLeakageColumnar(bank, engine, &serial_arg);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*serial, *want);
  EXPECT_EQ(serial_arg, want_arg);
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
  const double* match_conf = ws.match_conf.data();
  const uint32_t* match_rpos = ws.match_rpos.data();
  const uint8_t* matched = ws.matched.data();

  for (std::size_t i = 0; i < bank.size(); ++i) {
    const auto l = engine.RecordLeakageColumnar(bank.view(i), ref, &ws);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
  }
  EXPECT_EQ(poly, ws.poly.data());
  EXPECT_EQ(match_conf, ws.match_conf.data());
  EXPECT_EQ(match_rpos, ws.match_rpos.data());
  EXPECT_EQ(matched, ws.matched.data());
}

// ---------------------------------------------------------------------------
// Concurrency: concurrent set-leak queries through one leakage index racing
// an appender must be data-race-free (the store's read lock pins each
// snapshot, the index's mutex serializes catch-up) and every returned value
// must be a leakage the store could have held at some consistent snapshot.
// Named Columnar* so the TSan CI pass picks it up.
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

  AutoLeakage engine;
  inc::LeakageIndex index(base.p, unit, &engine);

  std::atomic<bool> failed{false};
  std::thread appender([&] {
    for (auto& r : extra) store.Append(std::move(r));
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int q = 0; q < 8; ++q) {
        const auto l = store.SetLeakIndexed(index);
        if (!l.ok() || !(l->leakage >= 0.0 && l->leakage <= 1.0)) {
          failed.store(true);
        }
      }
    });
  }
  appender.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(failed.load());

  // Quiescent: the final answer must agree bit-for-bit with a cold scan
  // over the full store.
  std::ptrdiff_t want_arg = -2;
  const auto want =
      SetLeakage(store.SnapshotDatabase(), base.p, unit, engine, &want_arg);
  const auto got = store.SetLeakIndexed(index);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, got->leakage);
  EXPECT_EQ(want_arg, got->argmax);
  EXPECT_EQ(got->records, store.size());
}

TEST(ColumnarConcurrencyTest, BankFromWrongStoreIsRejected) {
  WeightModel unit;
  Record p;
  p.Insert(Attribute("N", "x", 1.0));

  // An index that covers more records than the store holds: the serving
  // path must refuse it rather than answer for records the store lacks.
  RecordStore small;
  Record r;
  r.Insert(Attribute("N", "x", 0.5));
  RecordStore big;
  big.Append(r);
  big.Append(r);
  AutoLeakage engine;
  inc::LeakageIndex index(p, unit, &engine);
  ASSERT_TRUE(big.SetLeakIndexed(index).ok());
  const auto got = small.SetLeakIndexed(index);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal)
      << got.status().ToString();
}

}  // namespace
}  // namespace infoleak
