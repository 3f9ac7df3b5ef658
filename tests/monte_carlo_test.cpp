#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/generator.h"

namespace infoleak {
namespace {

TEST(MonteCarloTest, DeterministicForSameSeed) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}};
  Record r{{"A", "1", 0.5}, {"B", "9", 0.7}, {"C", "3", 0.3}};
  WeightModel unit;
  MonteCarloLeakage mc(1000, 42);
  auto a = mc.RecordLeakage(r, p, unit);
  auto b = mc.RecordLeakage(r, p, unit);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST(MonteCarloTest, ConvergesToNaiveOracle) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}};
  Record r{{"A", "1", 0.5}, {"B", "9", 0.7}, {"C", "3", 0.3},
           {"E", "5", 0.6}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("A", 3.0).ok());  // arbitrary weights are fine
  NaiveLeakage naive;
  double truth = naive.RecordLeakage(r, p, wm).value();
  MonteCarloLeakage mc(200000, 7);
  auto est = mc.EstimateLeakage(r, p, wm);
  ASSERT_TRUE(est.ok());
  // Within 5 standard errors of the exact value.
  EXPECT_NEAR(est->mean, truth, 5 * est->standard_error + 1e-12);
  EXPECT_LT(est->standard_error, 0.005);
}

TEST(MonteCarloTest, StandardErrorShrinksWithSamples) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}, {"B", "2", 0.5}};
  WeightModel unit;
  MonteCarloLeakage small(100, 3);
  MonteCarloLeakage large(10000, 3);
  auto es = small.EstimateLeakage(r, p, unit);
  auto el = large.EstimateLeakage(r, p, unit);
  ASSERT_TRUE(es.ok());
  ASSERT_TRUE(el.ok());
  EXPECT_LT(el->standard_error, es->standard_error);
}

TEST(MonteCarloTest, CertainRecordHasZeroVariance) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 1.0}};
  WeightModel unit;
  MonteCarloLeakage mc(500, 9);
  auto est = mc.EstimateLeakage(r, p, unit);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->mean, 2.0 / 3.0, 1e-12);  // single world
  EXPECT_NEAR(est->standard_error, 0.0, 1e-7);  // FP accumulation noise
}

TEST(MonteCarloTest, EmptyRecordLeaksNothing) {
  WeightModel unit;
  MonteCarloLeakage mc(100, 1);
  auto l = mc.RecordLeakage(Record{}, Record{{"A", "1"}}, unit);
  ASSERT_TRUE(l.ok());
  EXPECT_DOUBLE_EQ(*l, 0.0);
}

TEST(MonteCarloTest, ExpectedPrecisionConverges) {
  Record p{{"A", "1"}, {"B", "2"}};
  Record r{{"A", "1", 0.5}, {"X", "9", 0.5}};
  WeightModel unit;
  NaiveLeakage naive;
  double truth = naive.ExpectedPrecision(r, p, unit).value();
  MonteCarloLeakage mc(200000, 17);
  auto estimate = mc.ExpectedPrecision(r, p, unit);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, truth, 0.01);
}

TEST(MonteCarloTest, ScalesToRecordsEnumerationCannotTouch) {
  // 200-attribute records: 2^200 worlds, trivially sampled.
  GeneratorConfig config;
  config.n = 200;
  config.num_records = 1;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());
  MonteCarloLeakage mc(2000, 5);
  ExactLeakage exact;
  auto sampled = mc.RecordLeakage(data->records[0], data->reference,
                                  data->weights);
  auto truth = exact.RecordLeakage(data->records[0], data->reference,
                                   data->weights);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(truth.ok());
  EXPECT_NEAR(*sampled, *truth, 0.02);
}

TEST(MonteCarloTest, ZeroSamplesClampedToOne) {
  MonteCarloLeakage mc(0, 1);
  EXPECT_EQ(mc.samples(), 1u);
}

// The per-call seed overload (the selfcheck harness's reproducibility
// hook): the same (case, seed) pair must give a bit-identical estimate,
// independent of the engine's constructor seed, and a different per-call
// seed must actually resample.
TEST(MonteCarloTest, PerCallSeedOverridesEngineSeed) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}};
  Record r{{"A", "1", 0.5}, {"B", "2", 0.7}, {"C", "9", 0.3}};
  WeightModel unit;
  MonteCarloLeakage mc_a(400, 1);
  MonteCarloLeakage mc_b(400, 999);  // different constructor seed
  auto ea = mc_a.EstimateLeakage(r, p, unit, /*seed=*/77);
  auto eb = mc_b.EstimateLeakage(r, p, unit, /*seed=*/77);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea->mean, eb->mean);
  EXPECT_EQ(ea->standard_error, eb->standard_error);

  auto other = mc_a.EstimateLeakage(r, p, unit, /*seed=*/78);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ea->mean, other->mean);  // 400 Bernoulli draws; ties don't happen
}

// Verifies the Bessel (n-1) correction numerically. With a single
// attribute at confidence 0.5 the per-sample F1 is Bernoulli: 1 when the
// attribute materializes, 0 otherwise. For k successes in n samples the
// unbiased sample variance is k(n-k)/(n(n-1)), so the reported standard
// error must equal sqrt(k(n-k)/(n(n-1))/n) to rounding — any biased /n
// variance would miss by a factor sqrt((n-1)/n).
TEST(MonteCarloTest, StandardErrorUsesUnbiasedVariance) {
  Record p{{"A", "1"}};
  Record r{{"A", "1", 0.5}};
  WeightModel unit;
  const std::size_t n = 1000;
  MonteCarloLeakage mc(n, 3);
  auto est = mc.EstimateLeakage(r, p, unit, /*seed=*/21);
  ASSERT_TRUE(est.ok());
  const double k = std::round(est->mean * static_cast<double>(n));
  const double nn = static_cast<double>(n);
  const double unbiased_var = k * (nn - k) / (nn * (nn - 1.0));
  EXPECT_NEAR(est->standard_error, std::sqrt(unbiased_var / nn), 1e-12);
}

// The sampled world stream is part of the contract: the mean and standard
// error of three fixed (r, p, weights, seed) cases — unit weights, then two
// skewed weight models (one weighting an unmatched label heavily, one
// zeroing a matched label) — are pinned as hex-float constants. Any change
// to the order the Bernoulli draws are taken in, or to what they are
// weighted by, moves them.
TEST(MonteCarloTest, EstimatesPinnedAcrossWeightModels) {
  Record p{{"A", "1"}, {"B", "2"}, {"C", "3"}, {"D", "4"}, {"F", "6"}};
  Record r{{"A", "1", 0.5},  {"B", "9", 0.7}, {"C", "3", 0.3},
           {"D", "4", 0.95}, {"E", "5", 0.6}, {"F", "6", 0.15},
           {"G", "7", 0.8}};
  WeightModel unit;
  WeightModel skew1;
  ASSERT_TRUE(skew1.SetWeight("A", 3.0).ok());
  ASSERT_TRUE(skew1.SetWeight("B", 0.25).ok());
  ASSERT_TRUE(skew1.SetWeight("E", 7.0).ok());
  WeightModel skew2;
  ASSERT_TRUE(skew2.SetWeight("C", 0.0).ok());
  ASSERT_TRUE(skew2.SetWeight("D", 12.5).ok());
  ASSERT_TRUE(skew2.SetWeight("G", 0.125).ok());
  struct Pin {
    const WeightModel* wm;
    uint64_t seed;
    double mean;
    double standard_error;
  };
  const Pin pins[] = {
      {&unit, 11, 0x1.a7f37a69f4fbap-2, 0x1.10ef2d99ff291p-9},
      {&skew1, 12, 0x1.a4987c48c5e01p-2, 0x1.9d26b243a7d7fp-9},
      {&skew2, 13, 0x1.ac54a619f5f0ep-1, 0x1.45d2818ee595p-9},
  };
  MonteCarloLeakage mc(5000, 1);
  for (const Pin& pin : pins) {
    auto est = mc.EstimateLeakage(r, p, *pin.wm, pin.seed);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_EQ(est->mean, pin.mean) << "seed " << pin.seed;
    EXPECT_EQ(est->standard_error, pin.standard_error) << "seed " << pin.seed;
    EXPECT_EQ(est->samples, 5000u);
  }
}

}  // namespace
}  // namespace infoleak
