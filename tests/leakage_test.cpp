#include "core/leakage.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/string_util.h"

namespace infoleak {
namespace {

constexpr double kTol = 1e-12;

// ---------------------------------------------------------------------------
// Paper worked examples
// ---------------------------------------------------------------------------

TEST(RecordLeakageTest, PaperSection23Example) {
  // §2.3: p = {<N,Alice>, <A,20>, <P,123>}, r = {<N,Alice,0.5>, <A,20,1>}
  // -> L(r, p) = 1/2·L0({A}) + 1/2·L0({N,A}) = 1/2·1/2 + 1/2·4/5 = 13/20.
  // (The paper states wN = 2 for this example but its own arithmetic uses
  // unit weights; we reproduce the published 13/20 with unit weights and
  // check the properly weighted value separately below.)
  Record p{{"N", "Alice"}, {"A", "20"}, {"P", "123"}};
  Record r{{"N", "Alice", 0.5}, {"A", "20", 1.0}};
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  auto ln = naive.RecordLeakage(r, p, unit);
  auto le = exact.RecordLeakage(r, p, unit);
  ASSERT_TRUE(ln.ok());
  ASSERT_TRUE(le.ok());
  EXPECT_NEAR(*ln, 13.0 / 20.0, kTol);
  EXPECT_NEAR(*le, 13.0 / 20.0, kTol);
}

TEST(RecordLeakageTest, Section23ExampleWithStatedWeights) {
  // The same records evaluated with the weights the paper *states*
  // (wN = 2): worlds {A} -> F1(1, 1/4) = 2/5 and {N,A} -> F1(1, 3/4) = 6/7,
  // giving L = 1/2·2/5 + 1/2·6/7 = 22/35.
  Record p{{"N", "Alice"}, {"A", "20"}, {"P", "123"}};
  Record r{{"N", "Alice", 0.5}, {"A", "20", 1.0}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("N", 2.0).ok());
  NaiveLeakage naive;
  auto l = naive.RecordLeakage(r, p, wm);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 22.0 / 35.0, kTol);
}

TEST(SetLeakageTest, PaperSection24BeforeEr) {
  // §2.4: L0(R, p) = max{2/3, 2/3, 0} = 2/3 before entity resolution.
  Record p{{"N", "Alice"}, {"P", "123"}, {"C", "999"}, {"Z", "111"}};
  Database db;
  db.Add(Record{{"N", "Alice"}, {"P", "123"}});
  db.Add(Record{{"N", "Alice"}, {"C", "999"}});
  db.Add(Record{{"N", "Bob"}, {"P", "987"}});
  WeightModel unit;
  ExactLeakage exact;
  std::ptrdiff_t argmax = -1;
  auto l = SetLeakage(db, p, unit, exact, &argmax);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 2.0 / 3.0, kTol);
  EXPECT_EQ(argmax, 0);  // first of the two tied Alice records
}

TEST(SetLeakageTest, PaperSection24AfterMerge) {
  // After merging r and s: L(r+s, p) = 2·3/(3+4) = 6/7.
  Record p{{"N", "Alice"}, {"P", "123"}, {"C", "999"}, {"Z", "111"}};
  Record merged{{"N", "Alice"}, {"P", "123"}, {"C", "999"}};
  WeightModel unit;
  ExactLeakage exact;
  auto l = exact.RecordLeakage(merged, p, unit);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 6.0 / 7.0, kTol);
}

// ---------------------------------------------------------------------------
// Engine agreement on hand-picked cases
// ---------------------------------------------------------------------------

TEST(RecordLeakageTest, AllCertainReducesToL0) {
  Record p{{"N", "Alice"}, {"A", "20"}, {"P", "123"}, {"Z", "94305"}};
  Record r{{"N", "Alice"}, {"A", "20"}, {"P", "111"}};  // confidences all 1
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  double expected = RecordLeakageNoConfidence(r, p, unit);
  EXPECT_NEAR(naive.RecordLeakage(r, p, unit).value(), expected, kTol);
  EXPECT_NEAR(exact.RecordLeakage(r, p, unit).value(), expected, kTol);
}

TEST(RecordLeakageTest, EmptyAdversaryRecordLeaksNothing) {
  Record p{{"N", "Alice"}};
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  ApproxLeakage approx;
  for (const LeakageEngine* e :
       std::initializer_list<const LeakageEngine*>{&naive, &exact, &approx}) {
    auto l = e->RecordLeakage(Record{}, p, unit);
    ASSERT_TRUE(l.ok());
    EXPECT_NEAR(*l, 0.0, kTol);
  }
}

TEST(RecordLeakageTest, EmptyReferenceLeaksNothing) {
  Record r{{"N", "Alice", 0.5}};
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  EXPECT_NEAR(naive.RecordLeakage(r, Record{}, unit).value(), 0.0, kTol);
  EXPECT_NEAR(exact.RecordLeakage(r, Record{}, unit).value(), 0.0, kTol);
}

TEST(RecordLeakageTest, ZeroConfidenceEqualsAbsent) {
  Record p{{"N", "Alice"}, {"A", "20"}};
  Record with_zero{{"N", "Alice", 0.0}, {"A", "20", 0.8}};
  Record without{{"A", "20", 0.8}};
  WeightModel unit;
  ExactLeakage exact;
  // A zero-confidence attribute contributes no overlap term, but it does
  // still influence the precision denominator distribution... with c=0 the
  // attribute never appears in a world, so the two must agree exactly.
  EXPECT_NEAR(exact.RecordLeakage(with_zero, p, unit).value(),
              exact.RecordLeakage(without, p, unit).value(), kTol);
}

TEST(RecordLeakageTest, PerfectCertainMatchLeaksEverything) {
  Record p{{"N", "Alice"}, {"A", "20"}};
  Record r = p;
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  ApproxLeakage approx;
  EXPECT_NEAR(naive.RecordLeakage(r, p, unit).value(), 1.0, kTol);
  EXPECT_NEAR(exact.RecordLeakage(r, p, unit).value(), 1.0, kTol);
  // The Taylor approximation is exact here (Var[Y] = 0).
  EXPECT_NEAR(approx.RecordLeakage(r, p, unit).value(), 1.0, kTol);
}

TEST(RecordLeakageTest, SingleUncertainAttribute) {
  // One matching attribute with confidence c: L = c·F1(1, 1/|p|)... with
  // |p| = 2: world {a} has L0 = 2·1/(1+2) = 2/3, so L = c·2/3.
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.25}};
  WeightModel unit;
  ExactLeakage exact;
  NaiveLeakage naive;
  EXPECT_NEAR(exact.RecordLeakage(r, p, unit).value(), 0.25 * 2.0 / 3.0,
              kTol);
  EXPECT_NEAR(naive.RecordLeakage(r, p, unit).value(), 0.25 * 2.0 / 3.0,
              kTol);
}

TEST(RecordLeakageTest, ExactRejectsNonConstantWeights) {
  Record p{{"N", "Alice"}, {"A", "20"}};
  Record r{{"N", "Alice", 0.5}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("N", 2.0).ok());  // A keeps the default 1.0
  ExactLeakage exact;
  auto l = exact.RecordLeakage(r, p, wm);
  EXPECT_FALSE(l.ok());
  EXPECT_TRUE(l.status().IsInvalidArgument());
}

TEST(RecordLeakageTest, ExactAcceptsSingleLabelWithAnyWeight) {
  // With one occurring label the weight cancels, so Algorithm 1 applies
  // even though that label's weight differs from the default.
  Record p{{"N", "Alice"}};
  Record r{{"N", "Alice", 0.5}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("N", 2.0).ok());
  ExactLeakage exact;
  auto l = exact.RecordLeakage(r, p, wm);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 0.5, kTol);  // single world {N} w.p. 0.5, F1 = 1
}

TEST(RecordLeakageTest, NaiveRefusesHugeRecords) {
  Record p{{"A", "1"}};
  Record r;
  for (int i = 0; i < 30; ++i) {
    r.Insert(Attribute(StrCat("L", std::to_string(i)), "v", 0.5));
  }
  NaiveLeakage naive(25);
  auto l = naive.RecordLeakage(r, p, WeightModel{});
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Expected precision / recall
// ---------------------------------------------------------------------------

TEST(ExpectedRecallTest, LinearInConfidence) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}, {"B", "2", 0.25}};
  WeightModel unit;
  NaiveLeakage naive;
  // E[Re] = (0.5 + 0.25)/2.
  EXPECT_NEAR(naive.ExpectedRecall(r, p, unit).value(), 0.375, kTol);
  ExactLeakage exact;
  EXPECT_NEAR(exact.ExpectedRecall(r, p, unit).value(), 0.375, kTol);
}

TEST(ExpectedRecallTest, WeightedRecall) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 1.0}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("A", 3.0).ok());
  NaiveLeakage naive;
  // E[Re] = 3/(3+1).
  EXPECT_NEAR(naive.ExpectedRecall(r, p, wm).value(), 0.75, kTol);
}

TEST(ExpectedPrecisionTest, NaiveAndExactAgree) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}};
  Record r{{"A", "1", 0.5}, {"B", "9", 0.7}, {"C", "3", 0.3},
           {"D", "4", 0.6}};
  WeightModel unit;
  NaiveLeakage naive;
  ExactLeakage exact;
  auto n = naive.ExpectedPrecision(r, p, unit);
  auto e = exact.ExpectedPrecision(r, p, unit);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*n, *e, 1e-10);
}

TEST(ExpectedPrecisionTest, CertainExactMatchIsOne) {
  Record p{{"A", "1"}};
  Record r{{"A", "1", 1.0}};
  WeightModel unit;
  ExactLeakage exact;
  EXPECT_NEAR(exact.ExpectedPrecision(r, p, unit).value(), 1.0, kTol);
}

// ---------------------------------------------------------------------------
// Set leakage
// ---------------------------------------------------------------------------

TEST(SetLeakageTest, EmptyDatabaseIsZero) {
  WeightModel unit;
  ExactLeakage exact;
  std::ptrdiff_t argmax = 123;
  auto l = SetLeakage(Database{}, Record{{"A", "1"}}, unit, exact, &argmax);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(*l, 0.0);
  EXPECT_EQ(argmax, -1);
}

TEST(SetLeakageTest, TakesMaximumOverRecords) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}};
  Database db;
  db.Add(Record{{"A", "1"}});                 // L0 = 2/4
  db.Add(Record{{"A", "1"}, {"B", "2"}});     // L0 = 4/5 <- max
  db.Add(Record{{"X", "9"}});                 // 0
  WeightModel unit;
  ExactLeakage exact;
  std::ptrdiff_t argmax = -1;
  auto l = SetLeakage(db, p, unit, exact, &argmax);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 4.0 / 5.0, kTol);
  EXPECT_EQ(argmax, 1);
}

// ---------------------------------------------------------------------------
// AutoLeakage dispatch
// ---------------------------------------------------------------------------

/// The argmax rule is order-free: offering the same values (ties and all)
/// in any permutation reads the in-order (max, first argmax), and
/// `CannotBeat(upper, index)` never rules out an element that would have
/// changed the running maximum — whatever order the elements arrive in.
TEST(RunningMaxTest, AnyVisitingOrderKeepsTheFirstArgmax) {
  Rng rng(17);
  const double kLevels[] = {0.0, 0.25, 0.5, 0.5, 0.75, 1.0};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.NextBounded(12);
    std::vector<double> values(n);
    for (double& v : values) v = kLevels[rng.NextBounded(6)];
    RunningMax in_order;
    for (std::size_t i = 0; i < n; ++i) {
      in_order.Offer(values[i], static_cast<std::ptrdiff_t>(i));
    }
    std::ptrdiff_t first = 0;
    while (values[static_cast<std::size_t>(first)] != in_order.value()) {
      ++first;
    }
    ASSERT_EQ(in_order.index(), first);

    std::vector<std::ptrdiff_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = static_cast<std::ptrdiff_t>(i);
    }
    for (int perm = 0; perm < 8; ++perm) {
      rng.Shuffle(&order);
      RunningMax best;
      for (const std::ptrdiff_t i : order) {
        const double v = values[static_cast<std::size_t>(i)];
        RunningMax offered = best;
        offered.Offer(v, i);
        const bool wins =
            offered.value() != best.value() || offered.index() != best.index();
        // The tightest sound bound is the value itself; a looser one must
        // rule out no more.
        for (const double upper : {v, v + 0.125}) {
          if (best.CannotBeat(upper, i)) {
            EXPECT_FALSE(wins) << "trial " << trial << ": CannotBeat(" << upper
                               << ", " << i << ") ruled out a winner";
          }
        }
        best = offered;
      }
      EXPECT_EQ(best.value(), in_order.value()) << "trial " << trial;
      EXPECT_EQ(best.index(), in_order.index()) << "trial " << trial;
    }
  }
}

TEST(AutoLeakageTest, MatchesExactOnConstantWeights) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}, {"C", "9", 0.4}};
  WeightModel unit;
  AutoLeakage engine;
  ExactLeakage exact;
  EXPECT_NEAR(engine.RecordLeakage(r, p, unit).value(),
              exact.RecordLeakage(r, p, unit).value(), kTol);
}

TEST(AutoLeakageTest, UsesNaiveForSmallWeightedRecords) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}, {"B", "2", 0.7}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("A", 3.0).ok());
  AutoLeakage engine;
  NaiveLeakage naive;
  EXPECT_NEAR(engine.RecordLeakage(r, p, wm).value(),
              naive.RecordLeakage(r, p, wm).value(), kTol);
}

TEST(AutoLeakageTest, FallsBackToApproxForLargeWeightedRecords) {
  Record p;
  Record r;
  for (int i = 0; i < 40; ++i) {
    std::string label = StrCat("L", std::to_string(i));
    p.Insert(Attribute(label, "v"));
    r.Insert(Attribute(label, "v", 0.5));
  }
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("L0", 2.0).ok());
  AutoLeakage engine;  // naive cutoff 16 < 40 attributes
  ApproxLeakage approx;
  auto a = engine.RecordLeakage(r, p, wm);
  auto b = approx.RecordLeakage(r, p, wm);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(*a, *b, kTol);
}

TEST(AutoLeakageTest, FactoryReturnsWorkingEngine) {
  auto engine = MakeDefaultEngine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), "auto");
  Record p{{"A", "1"}};
  auto l = engine->RecordLeakage(p, p, WeightModel{});
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(*l, 1.0, kTol);
}

}  // namespace
}  // namespace infoleak
