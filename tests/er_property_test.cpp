// Property tests of the entity-resolution engines: on randomized databases
// with shared-value match predicates, all three resolvers must produce the
// same partition, be idempotent, preserve provenance exactly, and never
// lose attributes.

#include <gtest/gtest.h>

#include "util/string_util.h"

#include <algorithm>
#include <set>

#include "anon/generalized_er.h"
#include "er/blocking.h"
#include "er/er_metrics.h"
#include "er/swoosh.h"
#include "er/transitive.h"
#include "util/rng.h"

namespace infoleak {
namespace {

/// Random database over a small value pool so that records genuinely
/// collide: ~n records with 1-4 attributes over labels {N, P, E}.
Database RandomDatabase(Rng* rng, std::size_t n) {
  Database db;
  const char* labels[] = {"N", "P", "E"};
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    std::size_t attrs = 1 + rng->NextBounded(4);
    for (std::size_t a = 0; a < attrs; ++a) {
      const char* label = labels[rng->NextBounded(3)];
      std::string value = StrCat("v", std::to_string(rng->NextBounded(6)));
      r.Insert(Attribute(label, value, rng->NextDouble()));
    }
    db.Add(std::move(r));
  }
  return db;
}

std::vector<std::string> Canonical(const Database& db) {
  std::vector<std::string> out;
  for (const auto& r : db) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

class ErEngines : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ErEngines, AllEnginesAgreeOnSharedValueMatch) {
  Rng rng(GetParam() * 60013);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  LabelValueBlocking blocking({"N", "P", "E"});
  SwooshResolver swoosh(*match, merge);
  TransitiveClosureResolver transitive(*match, merge);
  BlockedResolver blocked(blocking, *match, merge);
  for (int trial = 0; trial < 5; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(15));
    auto s = swoosh.Resolve(db, nullptr);
    auto t = transitive.Resolve(db, nullptr);
    auto b = blocked.Resolve(db, nullptr);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Canonical(*s), Canonical(*t));
    EXPECT_EQ(Canonical(*s), Canonical(*b));
  }
}

TEST_P(ErEngines, ResolutionIsIdempotent) {
  Rng rng(GetParam() * 90001);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  SwooshResolver swoosh(*match, merge);
  for (int trial = 0; trial < 5; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(12));
    auto once = swoosh.Resolve(db, nullptr);
    ASSERT_TRUE(once.ok());
    auto twice = swoosh.Resolve(*once, nullptr);
    ASSERT_TRUE(twice.ok());
    EXPECT_EQ(Canonical(*once), Canonical(*twice));
  }
}

TEST_P(ErEngines, ProvenancePartitionsBaseIds) {
  // After resolution, each base id appears in exactly one output record.
  Rng rng(GetParam() * 123457);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  TransitiveClosureResolver resolver(*match, merge);
  for (int trial = 0; trial < 5; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(12));
    auto resolved = resolver.Resolve(db, nullptr);
    ASSERT_TRUE(resolved.ok());
    std::multiset<RecordId> seen;
    for (const auto& r : *resolved) {
      for (RecordId id : r.sources()) seen.insert(id);
    }
    EXPECT_EQ(seen.size(), db.size());
    for (RecordId id = 0; id < db.size(); ++id) {
      EXPECT_EQ(seen.count(id), 1u) << "id " << id;
    }
  }
}

TEST_P(ErEngines, NoAttributeIsLost) {
  // Union merge: every (label, value) present before resolution survives.
  Rng rng(GetParam() * 31);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  SwooshResolver resolver(*match, merge);
  for (int trial = 0; trial < 5; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(12));
    auto resolved = resolver.Resolve(db, nullptr);
    ASSERT_TRUE(resolved.ok());
    for (const auto& original : db) {
      for (const auto& attr : original) {
        bool found = false;
        for (const auto& r : *resolved) {
          if (r.Contains(attr.label, attr.value)) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << attr.ToString();
      }
    }
  }
}

TEST_P(ErEngines, MergedConfidenceIsMaxOfSources) {
  Rng rng(GetParam() * 77);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  SwooshResolver resolver(*match, merge);
  for (int trial = 0; trial < 3; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(10));
    auto resolved = resolver.Resolve(db, nullptr);
    ASSERT_TRUE(resolved.ok());
    for (const auto& r : *resolved) {
      for (const auto& attr : r) {
        double max_source_conf = 0.0;
        for (RecordId id : r.sources()) {
          max_source_conf = std::max(
              max_source_conf, db[id].Confidence(attr.label, attr.value));
        }
        EXPECT_DOUBLE_EQ(attr.confidence, max_source_conf)
            << attr.ToString();
      }
    }
  }
}

TEST_P(ErEngines, EntityCountNeverIncreases) {
  Rng rng(GetParam() * 271828);
  auto match = RuleMatch::SharedValue({"N", "P", "E"});
  UnionMerge merge;
  TransitiveClosureResolver resolver(*match, merge);
  for (int trial = 0; trial < 5; ++trial) {
    Database db = RandomDatabase(&rng, 3 + rng.NextBounded(12));
    auto resolved = resolver.Resolve(db, nullptr);
    ASSERT_TRUE(resolved.ok());
    EXPECT_LE(resolved->size(), db.size());
    // Adding a record never decreases the entity count by more than...
    // it can decrease by many (a linker can glue several groups), but the
    // count stays >= 1 for non-empty input.
    if (!db.empty()) {
      EXPECT_GE(resolved->size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErEngines,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

/// Random generalized table as a database: Zip and Age at mixed
/// generalization levels, sometimes missing or holding two values, a
/// Disease column outside the {Zip, Age} rule, and duplicate rows that
/// differ only in confidence.
Database RandomGeneralizedDatabase(Rng* rng, std::size_t n) {
  const char* zips[] = {"111", "112", "121", "11*", "12*", "1**", "*", "211"};
  const char* ages[] = {"25", "30", "60", "[20-30)", "[30-40)", "[0-100)",
                        ">=50", "*"};
  const char* diseases[] = {"Flu", "Heart", "Cancer"};
  const double confidences[] = {0.25, 0.5, 0.75, 1.0};
  auto add_values = [&](Record* r, const char* label, const char* const* pool,
                        std::size_t pool_size) {
    const uint64_t shape = rng->NextBounded(8);  // 0: missing, 1: two values
    const std::size_t count = shape == 0 ? 0 : shape == 1 ? 2 : 1;
    for (std::size_t v = 0; v < count; ++v) {
      r->Insert(Attribute(label, pool[rng->NextBounded(pool_size)],
                          confidences[rng->NextBounded(4)]));
    }
  };
  Database db;
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    if (!db.empty() && rng->NextBounded(4) == 0) {
      for (const auto& attr : db[rng->NextBounded(db.size())]) {
        r.Insert(Attribute(attr.label, attr.value,
                           confidences[rng->NextBounded(4)]));
      }
    } else {
      add_values(&r, "Zip", zips, 8);
      add_values(&r, "Age", ages, 8);
      if (rng->NextBounded(4) != 0) {
        r.Insert(Attribute("Disease", diseases[rng->NextBounded(3)],
                           confidences[rng->NextBounded(4)]));
      }
    }
    db.Add(std::move(r));
  }
  return db;
}

/// Entities ordered by provenance, so two resolvers' outputs compare as
/// sorted lists regardless of emission order.
std::vector<Record> BySources(const Database& db) {
  std::vector<Record> out(db.begin(), db.end());
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.sources() < b.sources();
  });
  return out;
}

void ExpectSameEntities(const Database& actual, const Database& expected) {
  const std::vector<Record> a = BySources(actual);
  const std::vector<Record> e = BySources(expected);
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sources(), e[i].sources()) << "entity " << i;
    EXPECT_EQ(a[i].attributes(), e[i].attributes())
        << a[i].ToString() << " vs " << e[i].ToString();
  }
}

TEST(GeneralizedClassResolverTest, MatchesTransitiveClosureOnRandomTables) {
  GeneralizationMerge merge;
  for (const MatchRules& rules :
       {MatchRules{{"Zip", "Age"}},
        MatchRules{{"Zip", "Age"}, {"Zip", "Disease"}}}) {
    GeneralizedRuleMatch match(rules);
    GeneralizedClassResolver by_class(match, merge);
    TransitiveClosureResolver reference(match, merge);
    // Seeds 1 and 2 are the empty and the one-row database.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      Rng rng(seed * 7919);
      const std::size_t n = seed <= 2 ? seed - 1 : 2 + rng.NextBounded(46);
      Database db = RandomGeneralizedDatabase(&rng, n);
      auto got = by_class.Resolve(db, nullptr);
      auto want = reference.Resolve(db, nullptr);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ExpectSameEntities(*got, *want);
    }
  }
}

// Two identical rows with no Zip form one class whose representative does
// not match itself: each row stays its own entity, as under pairwise
// closure. A third row shares their Age but also has no Zip, so nothing
// links it either.
TEST(GeneralizedClassResolverTest, ClassThatDoesNotMatchItselfStaysApart) {
  GeneralizedRuleMatch match(MatchRules{{"Zip", "Age"}});
  GeneralizationMerge merge;
  Database db;
  db.Add(Record{{"Age", "30"}, {"Disease", "Flu"}});
  db.Add(Record{{"Zip", "111"}, {"Age", "30"}});
  db.Add(Record{{"Age", "30"}, {"Disease", "Flu", 0.5}});
  db.Add(Record{{"Age", "30"}, {"Disease", "Flu"}});
  db.Add(Record{{"Zip", "11*"}, {"Age", "[30-40)"}});
  GeneralizedClassResolver by_class(match, merge);
  TransitiveClosureResolver reference(match, merge);
  auto got = by_class.Resolve(db, nullptr);
  auto want = reference.Resolve(db, nullptr);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(want->size(), 4u);
  ExpectSameEntities(*got, *want);
}

// The resolver's own counters: classes·(classes−1)/2 candidate pairs and
// one match call per class pair plus one reflexive call per class. The
// transitive series is left alone.
TEST(GeneralizedClassResolverTest, CountersChargeClassPairs) {
  GeneralizedRuleMatch match(MatchRules{{"Zip", "Age"}});
  GeneralizationMerge merge;
  GeneralizedClassResolver resolver(match, merge);
  Database db;
  db.Add(Record{{"Zip", "11*"}, {"Age", "3*"}, {"Disease", "Heart"}});
  db.Add(Record{{"Zip", "11*"}, {"Age", "3*"}, {"Disease", "Cancer"}});
  db.Add(Record{{"Zip", "2**"}, {"Age", ">=50"}, {"Disease", "Flu"}});
  db.Add(Record{{"Zip", "2**"}, {"Age", ">=50"}, {"Disease", "Hair"}});
  db.Add(Record{{"Age", "60"}, {"Disease", "Flu"}});
  const er_metrics::Handles mine = er_metrics::ForResolver("generalized-class");
  const er_metrics::Handles transitive = er_metrics::ForResolver("transitive");
  const uint64_t runs = mine.runs.Value();
  const uint64_t pairs = mine.candidate_pairs.Value();
  const uint64_t calls = mine.match_calls.Value();
  const uint64_t merges = mine.merges.Value();
  const uint64_t transitive_calls = transitive.match_calls.Value();
  ErStats stats;
  auto resolved = resolver.Resolve(db, &stats);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 3u);
  EXPECT_EQ(stats.match_calls, 3u + 3u);  // 3 classes: 3 reflexive + C(3,2)
  EXPECT_EQ(stats.merge_calls, 2u);
  EXPECT_EQ(mine.runs.Value() - runs, 1u);
  EXPECT_EQ(mine.candidate_pairs.Value() - pairs, 3u);
  EXPECT_EQ(mine.match_calls.Value() - calls, 6u);
  EXPECT_EQ(mine.merges.Value() - merges, 2u);
  EXPECT_EQ(transitive.match_calls.Value(), transitive_calls);
}

}  // namespace
}  // namespace infoleak
