// Property tests of the anonymization substrate on randomized tables:
// the one lattice search agrees with a brute force over every node and
// really is minimal, generalization is monotone in k, suppression never
// exceeds its budget, and the model checks (k-anonymity / l-diversity /
// t-closeness) relate as theory says.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <utility>

#include "anon/kanonymity.h"
#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "util/rng.h"

namespace infoleak {
namespace {

/// Random 3-column table: clustered Zip (3-digit, clustered prefixes),
/// Age in [20, 80), Disease from a 4-value vocabulary.
Table RandomTable(Rng* rng, std::size_t rows) {
  auto t = Table::Create({"Zip", "Age", "Disease"});
  const char* diseases[] = {"Flu", "Heart", "Cancer", "Asthma"};
  for (std::size_t i = 0; i < rows; ++i) {
    std::string zip = std::to_string(10 + rng->NextBounded(3)) +
                      std::to_string(rng->NextBounded(10));
    std::string age = std::to_string(20 + rng->NextBounded(60));
    t->AddRow({zip, age, diseases[rng->NextBounded(4)]});
  }
  return std::move(t).value();
}

/// The search's answer by brute force over the two-QI lattice: every node,
/// undersized classes suppressed, kept only when within budget with >= k
/// survivors and distinct-l-diverse, then the minimum by (sum, lex).
std::optional<Generalization> BruteForceGeneralization(
    const Table& t, const std::vector<QuasiIdentifier>& qis, std::size_t k,
    std::size_t budget, std::size_t l) {
  const std::vector<std::string> qi_columns{"Zip", "Age"};
  std::optional<Generalization> best;
  for (int za = 0; za <= qis[0].hierarchy->max_level(); ++za) {
    for (int ag = 0; ag <= qis[1].hierarchy->max_level(); ++ag) {
      Table generalized = GeneralizeTable(t, qis, {za, ag}).value();
      const auto classes = EquivalenceClasses(generalized, qi_columns).value();
      std::vector<bool> dropped(t.num_rows(), false);
      for (const auto& cls : classes) {
        if (cls.size() >= k) continue;
        for (std::size_t row : cls) dropped[row] = true;
      }
      Generalization node{Table::Create(generalized.columns()).value(),
                          {za, ag},
                          {}};
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        if (dropped[row]) {
          node.suppressed.push_back(row);
        } else {
          EXPECT_TRUE(node.table.AddRow(generalized.row(row)).ok());
        }
      }
      if (node.suppressed.size() > budget || node.table.num_rows() < k) {
        continue;
      }
      if (l > 1 &&
          !IsDistinctLDiverse(node.table, qi_columns, "Disease", l).value()) {
        continue;
      }
      auto key = [](const std::vector<int>& levels) {
        return std::make_pair(levels[0] + levels[1], levels);
      };
      if (!best || key(node.levels) < key(best->levels)) best = node;
    }
  }
  return best;
}

class AnonProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  AnonProperties() : zip_(3), age_({10, 30, 100}) {}

  std::vector<QuasiIdentifier> Qis() {
    return {{"Zip", &zip_}, {"Age", &age_}};
  }

  SuffixSuppressionHierarchy zip_;
  IntervalHierarchy age_;
};

TEST_P(AnonProperties, MinimalGeneralizationIsKAnonymous) {
  Rng rng(GetParam() * 7919);
  Table t = RandomTable(&rng, 8 + rng.NextBounded(20));
  for (std::size_t k : {2u, 3u}) {
    auto result = MinimalGeneralization(t, Qis(), k, 0);
    if (!result.ok()) continue;  // may be unachievable for this table
    EXPECT_TRUE(IsKAnonymous(result->table, {"Zip", "Age"}, k).value());
  }
}

TEST_P(AnonProperties, MinimalGeneralizationMatchesBruteForce) {
  // The search must publish exactly the brute force's node, suppressed rows
  // and table bytes, with and without an acceptance predicate.
  Rng rng(GetParam() * 50021);
  for (int trial = 0; trial < 4; ++trial) {
    Table t = RandomTable(&rng, 6 + rng.NextBounded(20));
    for (std::size_t k : {2u, 3u, 5u}) {
      for (std::size_t budget : {0u, 1u, 3u}) {
        for (std::size_t l : {1u, 2u}) {
          SCOPED_TRACE("k=" + std::to_string(k) + " budget=" +
                       std::to_string(budget) + " l=" + std::to_string(l));
          auto expected = BruteForceGeneralization(t, Qis(), k, budget, l);
          AcceptFn accept = nullptr;
          if (l > 1) {
            accept = [l](const Table& published) {
              return IsDistinctLDiverse(published, {"Zip", "Age"}, "Disease",
                                        l);
            };
          }
          auto result = MinimalGeneralization(t, Qis(), k, budget, accept);
          if (!expected) {
            EXPECT_TRUE(result.status().IsNotFound())
                << result.status().ToString();
            continue;
          }
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(result->levels, expected->levels);
          EXPECT_EQ(result->suppressed, expected->suppressed);
          EXPECT_EQ(result->table.ToCsv(), expected->table.ToCsv());
        }
      }
    }
  }
}

TEST_P(AnonProperties, MinimalGeneralizationHasMinimalLevelSum) {
  Rng rng(GetParam() * 104729);
  Table t = RandomTable(&rng, 8 + rng.NextBounded(12));
  auto result = MinimalGeneralization(t, Qis(), 2, 0);
  if (!result.ok()) return;
  int found_sum = std::accumulate(result->levels.begin(),
                                  result->levels.end(), 0);
  // Exhaustively confirm no vector with smaller sum works.
  for (int za = 0; za <= zip_.max_level(); ++za) {
    for (int ag = 0; ag <= age_.max_level(); ++ag) {
      if (za + ag >= found_sum) continue;
      auto generalized = GeneralizeTable(t, Qis(), {za, ag});
      ASSERT_TRUE(generalized.ok());
      EXPECT_FALSE(IsKAnonymous(*generalized, {"Zip", "Age"}, 2).value())
          << "levels {" << za << "," << ag << "} beat the 'minimal' "
          << found_sum;
    }
  }
}

TEST_P(AnonProperties, GeneralizationLevelsMonotoneInK) {
  // A higher k can never need a *smaller* total generalization.
  Rng rng(GetParam() * 31337);
  Table t = RandomTable(&rng, 12 + rng.NextBounded(12));
  int previous_sum = 0;
  for (std::size_t k : {1u, 2u, 3u, 4u}) {
    auto result = MinimalGeneralization(t, Qis(), k, 0);
    if (!result.ok()) break;
    int sum = std::accumulate(result->levels.begin(), result->levels.end(),
                              0);
    EXPECT_GE(sum, previous_sum) << "k=" << k;
    previous_sum = sum;
  }
}

TEST_P(AnonProperties, SuppressionRespectsBudgetAndAchievesK) {
  Rng rng(GetParam() * 65537);
  Table t = RandomTable(&rng, 10 + rng.NextBounded(15));
  for (std::size_t budget : {0u, 1u, 3u}) {
    auto result = MinimalGeneralization(t, Qis(), 3, budget);
    if (!result.ok()) continue;
    EXPECT_LE(result->suppressed.size(), budget);
    EXPECT_EQ(result->table.num_rows() + result->suppressed.size(),
              t.num_rows());
    EXPECT_TRUE(IsKAnonymous(result->table, {"Zip", "Age"}, 3).value());
  }
}

TEST_P(AnonProperties, SuppressionBudgetNeverHurtsGeneralization) {
  // A bigger suppression budget can only lower (or keep) the level sum.
  Rng rng(GetParam() * 13);
  Table t = RandomTable(&rng, 10 + rng.NextBounded(15));
  int previous = 1 << 20;
  for (std::size_t budget : {0u, 2u, 5u}) {
    auto result = MinimalGeneralization(t, Qis(), 3, budget);
    if (!result.ok()) continue;
    int sum = std::accumulate(result->levels.begin(), result->levels.end(),
                              0);
    EXPECT_LE(sum, previous);
    previous = sum;
  }
}

TEST_P(AnonProperties, DiversityBoundsDistinctValues) {
  // Distinct l-diversity can never exceed the class size or the sensitive
  // vocabulary; a k-anonymous table is at-least-1-diverse.
  Rng rng(GetParam() * 271);
  Table t = RandomTable(&rng, 12 + rng.NextBounded(12));
  auto result = MinimalGeneralization(t, Qis(), 2, 0);
  if (!result.ok()) return;
  auto distinct =
      MinDistinctSensitive(result->table, {"Zip", "Age"}, "Disease");
  ASSERT_TRUE(distinct.ok());
  EXPECT_GE(*distinct, 1u);
  EXPECT_LE(*distinct, 4u);  // vocabulary size
}

TEST_P(AnonProperties, TClosenessWithinBounds) {
  Rng rng(GetParam() * 997);
  Table t = RandomTable(&rng, 10 + rng.NextBounded(20));
  auto d = MaxSensitiveDistance(t, {"Zip", "Age"}, "Disease");
  ASSERT_TRUE(d.ok());
  EXPECT_GE(*d, 0.0);
  EXPECT_LE(*d, 1.0);
  // Fully generalizing collapses everything into one class whose
  // distribution IS the global one: distance exactly 0.
  auto fully = GeneralizeTable(
      t, {{"Zip", &zip_}, {"Age", &age_}},
      {zip_.max_level(), age_.max_level()});
  ASSERT_TRUE(fully.ok());
  auto d_full = MaxSensitiveDistance(*fully, {"Zip", "Age"}, "Disease");
  ASSERT_TRUE(d_full.ok());
  EXPECT_NEAR(*d_full, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnonProperties,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace infoleak
