#include "core/fbeta_leakage.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

#include <cmath>

#include "util/rng.h"

namespace infoleak {
namespace {

constexpr double kTol = 1e-10;

TEST(FBetaLeakageTest, BetaOneMatchesRecordLeakage) {
  Record p{{"N", "Alice"}, {"A", "20"}, {"P", "123"}};
  Record r{{"N", "Alice", 0.5}, {"A", "20", 1.0}, {"X", "9", 0.3}};
  WeightModel unit;
  const FBetaLeakage f1 = FBetaLeakage::Create(1.0).value();
  ExactLeakage exact;
  NaiveLeakage naive;
  EXPECT_NEAR(f1.Exact(r, p, unit).value(),
              exact.RecordLeakage(r, p, unit).value(), kTol);
  EXPECT_NEAR(f1.Naive(r, p, unit).value(),
              naive.RecordLeakage(r, p, unit).value(), kTol);
}

TEST(FBetaLeakageTest, ExactMatchesNaiveForVariousBetas) {
  Rng rng(2026);
  WeightModel unit;
  for (double beta : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const FBetaLeakage fbeta = FBetaLeakage::Create(beta).value();
    for (int trial = 0; trial < 5; ++trial) {
      Record p;
      Record r;
      std::size_t n = 2 + rng.NextBounded(6);
      for (std::size_t i = 0; i < n; ++i) {
        std::string label = StrCat("L", std::to_string(i));
        p.Insert(Attribute(label, "v"));
        if (rng.Bernoulli(0.7)) {
          std::string value = rng.Bernoulli(0.3) ? "wrong" : "v";
          r.Insert(Attribute(label, value, rng.NextDouble()));
        }
      }
      auto exact = fbeta.Exact(r, p, unit);
      auto naive = fbeta.Naive(r, p, unit);
      ASSERT_TRUE(exact.ok());
      ASSERT_TRUE(naive.ok());
      EXPECT_NEAR(*exact, *naive, kTol) << "beta=" << beta;
    }
  }
}

TEST(FBetaLeakageTest, SmallBetaApproachesPrecision) {
  // As beta -> 0, F_beta -> precision.
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}};
  Record r{{"A", "1", 0.8}, {"X", "9", 0.6}};
  WeightModel unit;
  const FBetaLeakage tiny = FBetaLeakage::Create(0.01).value();
  NaiveLeakage naive;
  auto f = tiny.Naive(r, p, unit);
  auto pr = naive.ExpectedPrecision(r, p, unit);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(pr.ok());
  EXPECT_NEAR(*f, *pr, 1e-3);
}

TEST(FBetaLeakageTest, LargeBetaApproachesRecall) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}};
  Record r{{"A", "1", 0.8}, {"X", "9", 0.6}};
  WeightModel unit;
  const FBetaLeakage big = FBetaLeakage::Create(100.0).value();
  NaiveLeakage naive;
  auto f = big.Naive(r, p, unit);
  auto re = naive.ExpectedRecall(r, p, unit);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(re.ok());
  EXPECT_NEAR(*f, *re, 1e-3);
}

TEST(FBetaLeakageTest, RecallHeavyBetaPunishesIncompleteness) {
  // r knows 1 of 4 attributes perfectly: recall-heavy beta scores lower
  // than precision-heavy beta.
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}};
  Record r{{"A", "1", 1.0}};
  WeightModel unit;
  const FBetaLeakage recall_heavy = FBetaLeakage::Create(2.0).value();
  const FBetaLeakage precision_heavy = FBetaLeakage::Create(0.5).value();
  double lr = recall_heavy.Exact(r, p, unit).value();
  double lp = precision_heavy.Exact(r, p, unit).value();
  EXPECT_LT(lr, lp);
}

TEST(FBetaLeakageTest, ApproximationTracksExact) {
  Rng rng(777);
  WeightModel unit;
  for (double beta : {0.5, 1.0, 2.0}) {
    const FBetaLeakage fbeta = FBetaLeakage::Create(beta).value();
    Record p;
    Record r;
    for (std::size_t i = 0; i < 40; ++i) {
      std::string label = StrCat("L", std::to_string(i));
      p.Insert(Attribute(label, "v"));
      if (rng.Bernoulli(0.6)) {
        r.Insert(Attribute(label, rng.Bernoulli(0.3) ? "wrong" : "v",
                           rng.NextDouble() * 0.5));
      }
    }
    auto exact = fbeta.Exact(r, p, unit);
    auto approx = fbeta.Approximate(r, p, unit);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(*approx, *exact, 0.01) << "beta=" << beta;
  }
}

TEST(FBetaLeakageTest, ExactRejectsNonConstantWeights) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("A", 2.0).ok());
  const FBetaLeakage fbeta = FBetaLeakage::Create(2.0).value();
  EXPECT_TRUE(fbeta.Exact(r, p, wm).status().IsInvalidArgument());
  // The approximation handles them.
  EXPECT_TRUE(fbeta.Approximate(r, p, wm).ok());
}

TEST(FBetaLeakageTest, SetLeakageTakesMax) {
  Record p{{"A", "1"}, {"B", "2"}};
  Database db;
  db.Add(Record{{"A", "1"}});
  db.Add(Record{{"A", "1"}, {"B", "2"}});
  WeightModel unit;
  const FBetaLeakage fbeta = FBetaLeakage::Create(2.0).value();
  auto set = fbeta.SetLeakage(db, p, unit);
  auto best = fbeta.Exact(db[1], p, unit);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(best.ok());
  EXPECT_NEAR(*set, *best, kTol);
}

TEST(FBetaLeakageTest, InvalidBetaIsRejected) {
  for (double beta : {std::nan(""), -3.0, 0.0, HUGE_VAL}) {
    EXPECT_TRUE(FBetaLeakage::Create(beta).status().IsInvalidArgument())
        << beta;
  }
  auto two = FBetaLeakage::Create(2.0);
  ASSERT_TRUE(two.ok());
  EXPECT_DOUBLE_EQ(two->beta(), 2.0);
}

}  // namespace
}  // namespace infoleak
