#include "anon/kanonymity.h"

#include <gtest/gtest.h>

namespace infoleak {
namespace {

/// Five clusterable rows plus one outlier that only full suppression of the
/// zip column could absorb.
Table OutlierTable() {
  auto t = Table::Create({"Zip", "Disease"});
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(t->AddRow({"111", "A"}).ok());
  EXPECT_TRUE(t->AddRow({"112", "B"}).ok());
  EXPECT_TRUE(t->AddRow({"113", "C"}).ok());
  EXPECT_TRUE(t->AddRow({"114", "D"}).ok());
  EXPECT_TRUE(t->AddRow({"115", "E"}).ok());
  EXPECT_TRUE(t->AddRow({"999", "F"}).ok());  // outlier
  return std::move(t).value();
}

TEST(SuppressionTest, ZeroBudgetMatchesPlainGeneralization) {
  // Budget 0 is the plain minimal generalization: nothing is dropped and
  // the published table is the whole table generalized to the chosen node.
  Table t = OutlierTable();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto with = MinimalGeneralization(t, qis, 5, 0);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with->levels, std::vector<int>{3});
  EXPECT_TRUE(with->suppressed.empty());
  auto plain = GeneralizeTable(t, qis, with->levels);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->rows(), with->table.rows());
}

TEST(SuppressionTest, SuppressingOutlierSavesGeneralization) {
  // Without suppression, 5-anonymity needs zip level 3 ("***", since "11*"
  // leaves 999 alone and even "1**"/"9**" split). With one suppression the
  // 11x cluster is 5-anonymous at level 1.
  Table t = OutlierTable();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto plain = MinimalGeneralization(t, qis, 5, 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->levels, std::vector<int>{3});

  auto with = MinimalGeneralization(t, qis, 5, 1);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with->levels, std::vector<int>{1});
  EXPECT_EQ(with->suppressed, std::vector<std::size_t>{5});
  EXPECT_EQ(with->table.num_rows(), 5u);
  EXPECT_TRUE(IsKAnonymous(with->table, {"Zip"}, 5).value());
}

TEST(SuppressionTest, BudgetTooSmallFallsBackToCoarser) {
  // Two outliers but budget 1: must generalize further instead.
  auto t = Table::Create({"Zip"});
  ASSERT_TRUE(t.ok());
  for (const char* zip : {"111", "112", "113", "881", "992"}) {
    ASSERT_TRUE(t->AddRow({zip}).ok());
  }
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto result = MinimalGeneralization(*t, qis, 3, 1);
  ASSERT_TRUE(result.ok());
  // Level 1 leaves classes {11*:3, 88*:1, 99*:1} -> 2 suppressions needed,
  // over budget; level 2 gives {1**:3, 8**:1, 9**:1} -> still 2; level 3
  // collapses everything.
  EXPECT_EQ(result->levels, std::vector<int>{3});
  EXPECT_TRUE(result->suppressed.empty());
}

TEST(SuppressionTest, GenerousBudgetSuppressesInsteadOfGeneralizing) {
  auto t = Table::Create({"Zip"});
  ASSERT_TRUE(t.ok());
  for (const char* zip : {"111", "111", "111", "881", "992"}) {
    ASSERT_TRUE(t->AddRow({zip}).ok());
  }
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto result = MinimalGeneralization(*t, qis, 3, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, std::vector<int>{0});  // no generalization at all
  EXPECT_EQ(result->suppressed.size(), 2u);
  EXPECT_EQ(result->table.num_rows(), 3u);
}

TEST(SuppressionTest, BudgetCoveringEveryRowNeverPublishesAnEmptyTable) {
  // Six all-distinct rows, k = 5, budget 6: at level 0 every class is a
  // singleton, so suppressing all six rows fits the budget — the degenerate
  // "solution" the search used to accept (an empty table hides nobody
  // inside a crowd). The real minimal answer is level 1, where the 11x
  // cluster is 5-anonymous once the outlier is suppressed.
  Table t = OutlierTable();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto result = MinimalGeneralization(t, qis, 5, 6);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, std::vector<int>{1});
  EXPECT_EQ(result->suppressed, std::vector<std::size_t>{5});
  EXPECT_EQ(result->table.num_rows(), 5u);
  EXPECT_TRUE(IsKAnonymous(result->table, {"Zip"}, 5).value());
}

TEST(SuppressionTest, SurvivorsUnderKAreNotASolution) {
  // Budget 2 is enough to suppress both outliers at level 0, but the three
  // survivors are fewer than k = 5 — that node must be passed over in favor
  // of full generalization, which keeps all five rows together.
  auto t = Table::Create({"Zip"});
  ASSERT_TRUE(t.ok());
  for (const char* zip : {"111", "111", "111", "888", "999"}) {
    ASSERT_TRUE(t->AddRow({zip}).ok());
  }
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto result = MinimalGeneralization(*t, qis, 5, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, std::vector<int>{3});
  EXPECT_TRUE(result->suppressed.empty());
  EXPECT_EQ(result->table.num_rows(), 5u);
}

TEST(SuppressionTest, AcceptSeesOnlyQualifyingNodes) {
  // Budget 1, k = 5: levels 0 fails the budget, so the predicate is first
  // offered level 1 (outlier dropped). Refusing it moves the walk on to
  // level 2, where the outlier is dropped again.
  Table t = OutlierTable();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  std::vector<std::size_t> offered_rows;
  auto result = MinimalGeneralization(
      t, qis, 5, 1, [&](const Table& published) -> Result<bool> {
        offered_rows.push_back(published.num_rows());
        return offered_rows.size() > 1;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(offered_rows, (std::vector<std::size_t>{5, 5}));
  EXPECT_EQ(result->levels, std::vector<int>{2});
  EXPECT_EQ(result->suppressed, std::vector<std::size_t>{5});
}

TEST(SuppressionTest, AcceptErrorAbortsTheSearch) {
  Table t = OutlierTable();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  auto result = MinimalGeneralization(
      t, qis, 5, 0, [](const Table&) -> Result<bool> {
        return Status::Internal("predicate failed");
      });
  EXPECT_EQ(result.status().ToString(),
            Status::Internal("predicate failed").ToString());
}

TEST(SuppressionTest, TooFewRowsIsNotFound) {
  auto t = Table::Create({"Zip"});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AddRow({"111"}).ok());
  SuffixSuppressionHierarchy zip(1);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  EXPECT_TRUE(MinimalGeneralization(*t, qis, 2, 5)
                  .status()
                  .IsNotFound());
}

TEST(SuppressionTest, NullHierarchyRejected) {
  Table t = OutlierTable();
  std::vector<QuasiIdentifier> qis{{"Zip", nullptr}};
  EXPECT_TRUE(MinimalGeneralization(t, qis, 2, 0)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace infoleak
