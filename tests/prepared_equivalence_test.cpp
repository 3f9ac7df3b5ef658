// The Record entry points are adapters: they prepare p, fill a one-record
// view and call the engine's one view-based body. A caller that keeps p
// prepared and refills a PreparedRecord itself must therefore get
// *bit-identical* results. These tests sweep randomized (r, p) pairs — with
// unit and random weights, matched, perturbed, and bogus attributes —
// through all four engines and assert equality with EXPECT_EQ on doubles,
// not EXPECT_NEAR; they also pin the Database set and batch entry points
// against per-record calls.

#include <gtest/gtest.h>

#include "core/leakage.h"
#include "gen/generator.h"
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

/// Asserts the Record entry points of `engine` and its view body over a
/// caller-filled PreparedRecord agree bit-for-bit on all three measures for
/// (r, p, wm). Combinations the entry point rejects (e.g. exact with
/// non-constant weights) must be rejected by the view body too.
void ExpectBitIdentical(const LeakageEngine& engine, const Record& r,
                        const Record& p, const WeightModel& wm) {
  const PreparedReference ref(p, wm);
  PreparedRecord pr(r, ref);
  LeakageWorkspace ws;

  const auto ls = engine.RecordLeakage(r, p, wm);
  const auto lp = engine.RecordLeakageColumnar(pr.view(), ref, &ws);
  ASSERT_EQ(ls.ok(), lp.ok()) << "r=" << r.ToString() << " p=" << p.ToString();
  if (ls.ok()) {
    EXPECT_EQ(*ls, *lp) << "r=" << r.ToString();
  }

  const auto ps = engine.ExpectedPrecision(r, p, wm);
  const auto pp = engine.ExpectedPrecisionColumnar(pr.view(), ref, &ws);
  ASSERT_EQ(ps.ok(), pp.ok());
  if (ps.ok()) {
    EXPECT_EQ(*ps, *pp) << "r=" << r.ToString();
  }

  const auto rs = engine.ExpectedRecall(r, p, wm);
  const auto rp = engine.ExpectedRecallColumnar(pr.view(), ref, &ws);
  ASSERT_EQ(rs.ok(), rp.ok());
  if (rs.ok()) {
    EXPECT_EQ(*rs, *rp) << "r=" << r.ToString();
  }
}

// ---------------------------------------------------------------------------
// Per-engine bit-identity sweeps
// ---------------------------------------------------------------------------

class PreparedEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PreparedEquivalence, UnitWeightsAllEngines) {
  Rng rng(GetParam() * 6151);
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  ApproxLeakage order1(1);
  ApproxLeakage order2(2);
  AutoLeakage dispatch;
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = MakeRandomCase(&rng, 1 + rng.NextBounded(7), 1.0);
    ExpectBitIdentical(naive, c.r, c.p, unit);
    ExpectBitIdentical(exact, c.r, c.p, unit);
    ExpectBitIdentical(order1, c.r, c.p, unit);
    ExpectBitIdentical(order2, c.r, c.p, unit);
    ExpectBitIdentical(dispatch, c.r, c.p, unit);
  }
}

TEST_P(PreparedEquivalence, RandomWeightsAllEngines) {
  Rng rng(GetParam() * 13007);
  NaiveLeakage naive;
  ExactLeakage exact;  // rejects non-constant weights on both paths
  ApproxLeakage approx;
  AutoLeakage dispatch;
  for (int trial = 0; trial < 8; ++trial) {
    RandomCase c = MakeRandomCase(&rng, 1 + rng.NextBounded(7), 0.9);
    WeightModel wm = RandomWeights(&rng, c);
    ExpectBitIdentical(naive, c.r, c.p, wm);
    ExpectBitIdentical(exact, c.r, c.p, wm);
    ExpectBitIdentical(approx, c.r, c.p, wm);
    ExpectBitIdentical(dispatch, c.r, c.p, wm);
  }
}

TEST_P(PreparedEquivalence, EdgeRecords) {
  Rng rng(GetParam());
  WeightModel unit;
  ExactLeakage exact;
  ApproxLeakage approx;
  RandomCase c = MakeRandomCase(&rng, 4, 0.8);

  // Empty r.
  Record empty;
  ExpectBitIdentical(exact, empty, c.p, unit);
  ExpectBitIdentical(approx, empty, c.p, unit);

  // r entirely disjoint from p (every id resolves to the kNoSymbol
  // sentinel on the prepared side).
  Record disjoint;
  disjoint.Insert(Attribute("X1", "y1", 0.7));
  disjoint.Insert(Attribute("X2", "y2", 0.4));
  ExpectBitIdentical(exact, disjoint, c.p, unit);
  ExpectBitIdentical(approx, disjoint, c.p, unit);

  // r == p exactly.
  ExpectBitIdentical(exact, c.p, c.p, unit);
  ExpectBitIdentical(approx, c.p, c.p, unit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------------
// Workspace and scratch-record reuse: repeated evaluation through the same
// workspace must not accumulate state across records of different sizes.
// ---------------------------------------------------------------------------

TEST(PreparedWorkspace, ReuseAcrossRecordsMatchesFreshEvaluation) {
  Rng rng(42);
  WeightModel unit;
  ExactLeakage exact;
  ApproxLeakage approx;
  RandomCase big = MakeRandomCase(&rng, 9, 1.0);
  const PreparedReference ref(big.p, unit);

  // A shuffled mix of sizes so the workspace shrinks and regrows.
  std::vector<Record> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(MakeRandomCase(&rng, 1 + rng.NextBounded(9), 1.0).r);
  }

  LeakageWorkspace ws;
  PreparedRecord scratch;
  for (const auto& r : records) {
    scratch.Assign(r, ref);
    // Fresh per-record state is the ground truth.
    PreparedRecord fresh(r, ref);
    LeakageWorkspace fresh_ws;
    auto reused = exact.RecordLeakageColumnar(scratch.view(), ref, &ws);
    auto pristine = exact.RecordLeakageColumnar(fresh.view(), ref, &fresh_ws);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(pristine.ok());
    EXPECT_EQ(*reused, *pristine);

    auto a_reused = approx.RecordLeakageColumnar(scratch.view(), ref, &ws);
    auto a_pristine =
        approx.RecordLeakageColumnar(fresh.view(), ref, &fresh_ws);
    ASSERT_TRUE(a_reused.ok());
    ASSERT_TRUE(a_pristine.ok());
    EXPECT_EQ(*a_reused, *a_pristine);
  }
}

TEST(PreparedWorkspace, RepeatedEvaluationIsIdempotent) {
  Rng rng(7);
  WeightModel unit;
  ExactLeakage exact;
  RandomCase c = MakeRandomCase(&rng, 6, 0.9);
  const PreparedReference ref(c.p, unit);
  PreparedRecord pr(c.r, ref);
  LeakageWorkspace ws;
  auto first = exact.RecordLeakageColumnar(pr.view(), ref, &ws);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto again = exact.RecordLeakageColumnar(pr.view(), ref, &ws);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*first, *again);
  }
}

// ---------------------------------------------------------------------------
// Set-level entry points: the Database convenience vs scans over a bank the
// caller built, serial and sharded, vs batch.
// ---------------------------------------------------------------------------

TEST(PreparedSetLeakage, StringAndPreparedOverloadsAgree) {
  GeneratorConfig config = GeneratorConfig::Basic();
  config.n = 12;
  config.num_records = 60;
  config.seed = 20260806;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());
  Database db;
  for (const auto& r : data->records) db.Add(r);

  ExactLeakage exact;
  const PreparedReference ref(data->reference, data->weights);
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);

  auto via_string = SetLeakage(db, data->reference, data->weights, exact);
  auto via_prepared = SetLeakageColumnar(bank, exact);
  ASSERT_TRUE(via_string.ok());
  ASSERT_TRUE(via_prepared.ok());
  EXPECT_EQ(*via_string, *via_prepared);

  std::ptrdiff_t argmax_s = 0, argmax_p = 0;
  auto am_s = SetLeakage(db, data->reference, data->weights, exact, &argmax_s);
  auto am_p = SetLeakageColumnar(bank, exact, &argmax_p);
  ASSERT_TRUE(am_s.ok());
  ASSERT_TRUE(am_p.ok());
  EXPECT_EQ(*am_s, *am_p);
  EXPECT_EQ(argmax_s, argmax_p);
}

TEST(PreparedSetLeakage, BatchLeakageMatchesPerRecordCalls) {
  GeneratorConfig config = GeneratorConfig::Basic();
  config.n = 10;
  config.num_records = 40;
  config.random_weights = true;
  config.seed = 99;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());

  ApproxLeakage approx;
  std::vector<const Record*> ptrs;
  for (const auto& r : data->records) ptrs.push_back(&r);

  const PreparedReference ref(data->reference, data->weights);
  ColumnBank appended(ref);
  for (const Record* r : ptrs) appended.Append(*r);
  auto batch_s = BatchLeakageColumnar(
      ColumnBank::FromDatabase(data->records, ref), approx);
  auto batch_p = BatchLeakageColumnar(appended, approx);
  ASSERT_TRUE(batch_s.ok());
  ASSERT_TRUE(batch_p.ok());
  ASSERT_EQ(batch_s->size(), ptrs.size());
  ASSERT_EQ(batch_p->size(), ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    auto one = approx.RecordLeakage(*ptrs[i], data->reference, data->weights);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ((*batch_s)[i], *one) << "record " << i;
    EXPECT_EQ((*batch_p)[i], *one) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// ApproxLeakage order validation (satellite b)
// ---------------------------------------------------------------------------

TEST(ApproxOrderValidation, CreateRejectsOutOfRangeOrders) {
  EXPECT_FALSE(ApproxLeakage::Create(0).ok());
  EXPECT_FALSE(ApproxLeakage::Create(-3).ok());
  EXPECT_FALSE(ApproxLeakage::Create(3).ok());
  EXPECT_TRUE(ApproxLeakage::Create(1).ok());
  EXPECT_TRUE(ApproxLeakage::Create(2).ok());
}

TEST(ApproxOrderValidation, ConstructorClampsToDocumentedOrders) {
  // The legacy constructor keeps working but clamps: <2 → first order,
  // >=2 → second order. Out-of-range inputs therefore behave like the
  // nearest valid order instead of silently producing a third, undefined
  // variant.
  Rng rng(11);
  WeightModel unit;
  RandomCase c = MakeRandomCase(&rng, 6, 0.9);
  ApproxLeakage order1(1);
  ApproxLeakage order2(2);
  ApproxLeakage below(0);
  ApproxLeakage way_below(-7);
  ApproxLeakage above(9);
  auto l1 = order1.RecordLeakage(c.r, c.p, unit);
  auto l2 = order2.RecordLeakage(c.r, c.p, unit);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(*below.RecordLeakage(c.r, c.p, unit), *l1);
  EXPECT_EQ(*way_below.RecordLeakage(c.r, c.p, unit), *l1);
  EXPECT_EQ(*above.RecordLeakage(c.r, c.p, unit), *l2);
  EXPECT_EQ(order1.name(), below.name());
  EXPECT_EQ(order2.name(), above.name());
}

}  // namespace
}  // namespace infoleak
