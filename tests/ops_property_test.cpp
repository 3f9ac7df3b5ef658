// Property tests for the adversary-operator algebra: identity laws,
// pipeline composition, operator idempotence, and leakage monotonicity of
// correct analysis.

#include <gtest/gtest.h>

#include "util/string_util.h"

#include "er/swoosh.h"
#include "ops/augment.h"
#include "ops/error_correction.h"
#include "ops/operator.h"
#include "util/rng.h"

namespace infoleak {
namespace {

Database RandomDatabase(Rng* rng, std::size_t n) {
  Database db;
  const char* labels[] = {"N", "P", "Z"};
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    std::size_t attrs = 1 + rng->NextBounded(4);
    for (std::size_t a = 0; a < attrs; ++a) {
      r.Insert(Attribute(labels[rng->NextBounded(3)],
                         StrCat("v", std::to_string(rng->NextBounded(5))),
                         rng->NextDouble()));
    }
    db.Add(std::move(r));
  }
  return db;
}

std::string Canonical(const Database& db) {
  std::vector<std::string> rows;
  for (const auto& r : db) rows.push_back(r.ToString());
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& row : rows) out += row + "\n";
  return out;
}

class OpsProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OpsProperties, IdentityIsNeutralInPipelines) {
  Rng rng(GetParam() * 17);
  Database db = RandomDatabase(&rng, 4 + rng.NextBounded(8));
  IdentityOperator id;
  ErrorCorrectionOperator fix(1);
  fix.AddDictionary("N", {"v0", "v1"});
  PipelineOperator with_id({&id, &fix, &id});
  PipelineOperator without({&fix});
  auto a = with_id.Apply(db);
  auto b = without.Apply(db);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Canonical(*a), Canonical(*b));
}

TEST_P(OpsProperties, PipelineComposesSequentially) {
  // pipeline({f, g}) must equal applying f then g by hand.
  Rng rng(GetParam() * 29);
  Database db = RandomDatabase(&rng, 4 + rng.NextBounded(8));
  ErrorCorrectionOperator fix(1);
  fix.AddDictionary("N", {"v0"});
  AugmentOperator infer;
  infer.AddRule("N", "v0", "Z", "augmented");
  PipelineOperator pipeline({&fix, &infer});
  auto composed = pipeline.Apply(db);
  auto by_hand = infer.Apply(fix.Apply(db).value());
  ASSERT_TRUE(composed.ok());
  ASSERT_TRUE(by_hand.ok());
  EXPECT_EQ(Canonical(*composed), Canonical(*by_hand));
}

TEST_P(OpsProperties, ErrorCorrectionIsIdempotent) {
  Rng rng(GetParam() * 41);
  Database db = RandomDatabase(&rng, 4 + rng.NextBounded(8));
  ErrorCorrectionOperator fix(1);
  fix.AddDictionary("N", {"v0", "v3"});
  auto once = fix.Apply(db);
  ASSERT_TRUE(once.ok());
  auto twice = fix.Apply(*once);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(Canonical(*once), Canonical(*twice));
}

TEST_P(OpsProperties, AugmentIsIdempotentAndGrowsRecords) {
  Rng rng(GetParam() * 53);
  Database db = RandomDatabase(&rng, 4 + rng.NextBounded(8));
  AugmentOperator infer;
  infer.AddRule("N", "v0", "D", "derived");
  auto once = infer.Apply(db);
  ASSERT_TRUE(once.ok());
  auto twice = infer.Apply(*once);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(Canonical(*once), Canonical(*twice));
  EXPECT_GE(once->TotalAttributes(), db.TotalAttributes());
}

TEST_P(OpsProperties, CorrectAugmentationNeverLowersLeakage) {
  // Rules that derive *reference-true* facts can only help the adversary.
  Rng rng(GetParam() * 71);
  Record p{{"N", "v0"}, {"Z", "z-true"}, {"P", "v1"}};
  Database db = RandomDatabase(&rng, 6);
  AugmentOperator infer;
  infer.AddRule("N", "v0", "Z", "z-true");
  IdentityOperator id;
  WeightModel unit;
  ExactLeakage engine;
  double before = InformationLeakage(db, p, id, unit, engine).value();
  double after = InformationLeakage(db, p, infer, unit, engine).value();
  EXPECT_GE(after, before - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsProperties,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace infoleak
