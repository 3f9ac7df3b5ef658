#include "util/string_util.h"

#include <gtest/gtest.h>

namespace infoleak {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nochange"), "nochange");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_FALSE(StartsWith("xfoo", "foo"));
}

TEST(WildcardMatchTest, StarMatchesExactlyOneChar) {
  EXPECT_TRUE(WildcardMatch("11*", "111"));
  EXPECT_TRUE(WildcardMatch("11*", "112"));
  EXPECT_TRUE(WildcardMatch("1**", "199"));
  EXPECT_TRUE(WildcardMatch("***", "abc"));
  EXPECT_FALSE(WildcardMatch("11*", "1113"));  // length must match
  EXPECT_FALSE(WildcardMatch("11*", "12"));
  EXPECT_FALSE(WildcardMatch("11*", "121"));
}

TEST(WildcardMatchTest, NoWildcardsIsEquality) {
  EXPECT_TRUE(WildcardMatch("abc", "abc"));
  EXPECT_FALSE(WildcardMatch("abc", "abd"));
}

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("Influenza", "Influenza"), 0u);
  EXPECT_EQ(EditDistance("Flu", "Flue"), 1u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("abcdef", "azced"), EditDistance("azced", "abcdef"));
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(0.5, 4), "0.5");
  EXPECT_EQ(FormatDouble(1.0, 4), "1");
  EXPECT_EQ(FormatDouble(0.1234567, 7), "0.1234567");
  EXPECT_EQ(FormatDouble(0.25, 2), "0.25");
  EXPECT_EQ(FormatDouble(-2.50, 3), "-2.5");
}

TEST(StrCatTest, ConcatenatesMixedPieces) {
  std::string owned = "mid";
  EXPECT_EQ(StrCat("a", owned, std::to_string(42), "-end"), "amid42-end");
  EXPECT_EQ(StrCat("solo"), "solo");
  EXPECT_EQ(StrCat("", "", ""), "");
}

}  // namespace
}  // namespace infoleak
