#include "core/record_io.h"

#include <gtest/gtest.h>

namespace infoleak {
namespace {

TEST(ParseRecordTest, BasicRecord) {
  auto r = ParseRecord("{<N, Alice>, <A, 20, 0.5>}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ(r->Confidence("N", "Alice"), 1.0);
  EXPECT_DOUBLE_EQ(r->Confidence("A", "20"), 0.5);
}

TEST(ParseRecordTest, BracesOptional) {
  auto r = ParseRecord("<N, Alice> <P, 123>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParseRecordTest, EmptyRecord) {
  for (const char* text : {"{}", "", "  "}) {
    auto r = ParseRecord(text);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_TRUE(r->empty());
  }
}

TEST(ParseRecordTest, RoundTripsWithToString) {
  Record original{{"Z", "94305"}, {"N", "Alice", 0.75}, {"A", "20"}};
  auto parsed = ParseRecord(FormatRecord(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, original);
}

TEST(ParseRecordTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseRecord("{<N, Alice>").ok());       // unbalanced brace
  EXPECT_FALSE(ParseRecord("<N, Alice").ok());         // unterminated attr
  EXPECT_FALSE(ParseRecord("<N>").ok());               // too few fields
  EXPECT_FALSE(ParseRecord("<N, A, B, C>").ok());      // too many fields
  EXPECT_FALSE(ParseRecord("<N, Alice, nan>").ok());   // bad confidence
  EXPECT_FALSE(ParseRecord("<N, Alice, 2>").ok());     // out of range
  EXPECT_FALSE(ParseRecord("<, Alice>").ok());         // empty label
  EXPECT_FALSE(ParseRecord("junk <N, A>").ok());       // junk before
}

TEST(ParseRecordTest, TrimsWhitespace) {
  auto r = ParseRecord("  { < N ,  Alice ,  0.5 > }  ");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Confidence("N", "Alice"), 0.5);
}

TEST(DatabaseCsvTest, RoundTrip) {
  Database db;
  db.Add(Record{{"N", "Alice"}, {"P", "123", 0.5}});
  db.Add(Record{{"N", "Bob"}});
  db.Add(Record{});  // empty records vanish in long format — see below
  std::string csv = SaveDatabaseCsv(db);
  auto loaded = LoadDatabaseCsv(csv);
  ASSERT_TRUE(loaded.ok());
  // The empty record has no rows, so only 2 records round-trip.
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0], db[0]);
  EXPECT_EQ((*loaded)[1], db[1]);
}

TEST(DatabaseCsvTest, HeaderOptional) {
  auto with = LoadDatabaseCsv("record,label,value,confidence\n0,N,Alice,1\n");
  auto without = LoadDatabaseCsv("0,N,Alice,1\n");
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ((*with)[0], (*without)[0]);
}

TEST(DatabaseCsvTest, SkipsCommentLinesAsGenerateWritesThem) {
  // `infoleak generate --emit-reference` output, header and all: the
  // comment lines must not reach the CSV parser.
  auto db = LoadDatabaseCsv(
      "# n=2 seed=7 pc=0.5\n"
      "# reference: {<N, Alice>, <P, 123>}\n"
      "record,label,value,confidence\n"
      "0,N,Alice,1\n"
      "  # an indented comment\n"
      "1,P,123,0.5\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), 2u);
  EXPECT_TRUE((*db)[0].Contains("N", "Alice"));
  EXPECT_DOUBLE_EQ((*db)[1].Confidence("P", "123"), 0.5);
}

TEST(DatabaseCsvTest, HashInsideQuotedValueIsNotAComment) {
  // A quoted value spanning lines may continue with '#': that line is data.
  Database db;
  db.Add(Record{{"A", "first\n# second"}});
  auto loaded = LoadDatabaseCsv(SaveDatabaseCsv(db));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0], db[0]);
}

TEST(DatabaseCsvTest, ConfidenceColumnOptional) {
  auto db = LoadDatabaseCsv("0,N,Alice\n0,P,123\n");
  ASSERT_TRUE(db.ok());
  EXPECT_DOUBLE_EQ((*db)[0].Confidence("N", "Alice"), 1.0);
}

TEST(DatabaseCsvTest, RecordsInFirstOccurrenceOrder) {
  auto db = LoadDatabaseCsv("5,N,Eve,1\n2,N,Bob,1\n5,P,99,1\n");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->size(), 2u);
  EXPECT_TRUE((*db)[0].Contains("N", "Eve"));
  EXPECT_TRUE((*db)[0].Contains("P", "99"));
  EXPECT_TRUE((*db)[1].Contains("N", "Bob"));
}

TEST(DatabaseCsvTest, ValuesWithCommasSurviveQuoting) {
  Database db;
  db.Add(Record{{"A", "123 Main, Apt 4"}});
  auto loaded = LoadDatabaseCsv(SaveDatabaseCsv(db));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)[0].Contains("A", "123 Main, Apt 4"));
}

TEST(DatabaseCsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(LoadDatabaseCsv("0,N\n").ok());            // too few fields
  EXPECT_FALSE(LoadDatabaseCsv("x,N,Alice,1\n").ok());    // bad index
  EXPECT_FALSE(LoadDatabaseCsv("-1,N,Alice,1\n").ok());   // negative index
  EXPECT_FALSE(LoadDatabaseCsv("0,N,Alice,7\n").ok());    // bad confidence
}

TEST(DatabaseCsvTest, EmptyDocumentIsEmptyDatabase) {
  auto db = LoadDatabaseCsv("");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->empty());
}

}  // namespace
}  // namespace infoleak
