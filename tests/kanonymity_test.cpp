#include "anon/kanonymity.h"

#include <gtest/gtest.h>

namespace infoleak {
namespace {

/// Table 1 of the paper (patients).
Table PaperTable1() {
  auto t = Table::Create({"Name", "Zip", "Age", "Disease"});
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(t->AddRow({"Alice", "111", "30", "Heart"}).ok());
  EXPECT_TRUE(t->AddRow({"Bob", "112", "31", "Breast"}).ok());
  EXPECT_TRUE(t->AddRow({"Carol", "115", "33", "Cancer"}).ok());
  EXPECT_TRUE(t->AddRow({"Dave", "222", "50", "Hair"}).ok());
  EXPECT_TRUE(t->AddRow({"Pat", "299", "70", "Flu"}).ok());
  EXPECT_TRUE(t->AddRow({"Zoe", "241", "60", "Flu"}).ok());
  return std::move(t).value();
}

TEST(EquivalenceClassesTest, GroupsByQuasiIdentifiers) {
  Table t = PaperTable1();
  auto classes = EquivalenceClasses(t, {"Zip", "Age"});
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(classes->size(), 6u);  // all distinct before generalization
  auto by_disease = EquivalenceClasses(t, {"Disease"});
  ASSERT_TRUE(by_disease.ok());
  EXPECT_EQ(by_disease->size(), 5u);  // two Flu rows share a class
}

TEST(EquivalenceClassesTest, UnknownColumnFails) {
  Table t = PaperTable1();
  EXPECT_FALSE(EquivalenceClasses(t, {"Ghost"}).ok());
}

TEST(IsKAnonymousTest, RawTableIsNotThreeAnonymous) {
  Table t = PaperTable1();
  auto anon = IsKAnonymous(t, {"Zip", "Age"}, 3);
  ASSERT_TRUE(anon.ok());
  EXPECT_FALSE(*anon);
  // Every table is 1-anonymous.
  EXPECT_TRUE(IsKAnonymous(t, {"Zip", "Age"}, 1).value());
}

TEST(GeneralizeTableTest, ReproducesPaperTable2) {
  // Zip suppressed progressively; age to "3*" / ">=50" buckets. With zip at
  // level 1 for the 11x group we'd get 11*; the paper's Table 2 uses
  // heterogeneous suppression (11* vs 2**) which full-domain generalization
  // approximates by the coarser level for all rows of a column. We check
  // the exact Table 2 cells through a MappingHierarchy instead.
  Table t = PaperTable1();
  auto no_names = t.DropColumns({"Name"});
  ASSERT_TRUE(no_names.ok());

  MappingHierarchy zip(1);
  zip.AddMapping(1, "111", "11*");
  zip.AddMapping(1, "112", "11*");
  zip.AddMapping(1, "115", "11*");
  zip.AddMapping(1, "222", "2**");
  zip.AddMapping(1, "299", "2**");
  zip.AddMapping(1, "241", "2**");
  MappingHierarchy age(1);
  age.AddMapping(1, "30", "3*");
  age.AddMapping(1, "31", "3*");
  age.AddMapping(1, "33", "3*");
  age.AddMapping(1, "50", ">=50");
  age.AddMapping(1, "70", ">=50");
  age.AddMapping(1, "60", ">=50");

  std::vector<QuasiIdentifier> qis{{"Zip", &zip}, {"Age", &age}};
  auto table2 = GeneralizeTable(*no_names, qis, {1, 1});
  ASSERT_TRUE(table2.ok());
  EXPECT_EQ(table2->Cell(0, "Zip").value(), "11*");
  EXPECT_EQ(table2->Cell(0, "Age").value(), "3*");
  EXPECT_EQ(table2->Cell(3, "Zip").value(), "2**");
  EXPECT_EQ(table2->Cell(3, "Age").value(), ">=50");

  // Table 2 is 3-anonymous with two equivalence classes of size 3.
  auto anon = IsKAnonymous(*table2, {"Zip", "Age"}, 3);
  ASSERT_TRUE(anon.ok());
  EXPECT_TRUE(*anon);
  auto classes = EquivalenceClasses(*table2, {"Zip", "Age"});
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 2u);
  EXPECT_EQ((*classes)[0].size(), 3u);
  EXPECT_EQ((*classes)[1].size(), 3u);
}

TEST(GeneralizeTableTest, ValidatesInputs) {
  Table t = PaperTable1();
  SuffixSuppressionHierarchy zip(3);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}};
  EXPECT_FALSE(GeneralizeTable(t, qis, {1, 2}).ok());  // arity mismatch
  std::vector<QuasiIdentifier> null_qi{{"Zip", nullptr}};
  EXPECT_FALSE(GeneralizeTable(t, null_qi, {1}).ok());
  std::vector<QuasiIdentifier> bad_col{{"Ghost", &zip}};
  EXPECT_FALSE(GeneralizeTable(t, bad_col, {1}).ok());
}

TEST(MinimalGeneralizationTest, FindsMinimalLevels) {
  Table t = PaperTable1();
  auto no_names = t.DropColumns({"Name"});
  ASSERT_TRUE(no_names.ok());
  SuffixSuppressionHierarchy zip(3);
  IntervalHierarchy age({10, 50}, /*clamp_at=*/-1);
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}, {"Age", &age}};
  auto result = MinimalGeneralization(*no_names, qis, 3, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(
      IsKAnonymous(result->table, {"Zip", "Age"}, 3).value());
  // Minimality: no level vector with smaller sum achieves 3-anonymity.
  // (zip level 2 + age level 1 works: zips 1**/2**, ages by decade... ages
  // 30,31,33 -> [30-40); 50,70,60 -> distinct decades, so age needs level 2.)
  int total = result->levels[0] + result->levels[1];
  EXPECT_LE(total, 4);
  EXPECT_GE(total, 3);
}

TEST(MinimalGeneralizationTest, ZeroGeneralizationWhenAlreadyAnonymous) {
  auto t = Table::Create({"A", "B"});
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t->AddRow({"x", "y"}).ok());
  SuffixSuppressionHierarchy h(1);
  std::vector<QuasiIdentifier> qis{{"A", &h}};
  auto result = MinimalGeneralization(*t, qis, 4, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, std::vector<int>{0});
}

TEST(MinimalGeneralizationTest, FailsWhenTableTooSmall) {
  auto t = Table::Create({"A"});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AddRow({"x"}).ok());
  SuffixSuppressionHierarchy h(1);
  std::vector<QuasiIdentifier> qis{{"A", &h}};
  EXPECT_TRUE(
      MinimalGeneralization(*t, qis, 2, 0).status().IsNotFound());
}

TEST(MinimalGeneralizationTest, FullSuppressionAsLastResort) {
  auto t = Table::Create({"A"});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AddRow({"x1"}).ok());
  ASSERT_TRUE(t->AddRow({"y2"}).ok());
  SuffixSuppressionHierarchy h(2);
  std::vector<QuasiIdentifier> qis{{"A", &h}};
  auto result = MinimalGeneralization(*t, qis, 2, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, std::vector<int>{2});  // "**" for both rows
}

}  // namespace
}  // namespace infoleak
