#include "store/record_store.h"

#include <gtest/gtest.h>

#include "er/dipping.h"
#include "er/transitive.h"
#include "gen/population.h"
#include "util/string_util.h"

namespace infoleak {
namespace {

// ---------------------------------------------------------------------------
// InvertedIndex
// ---------------------------------------------------------------------------

TEST(InvertedIndexTest, PostingListsPerValue) {
  InvertedIndex index;
  index.Add(0, Record{{"N", "Alice"}, {"P", "1"}});
  index.Add(1, Record{{"N", "Alice"}, {"P", "2"}});
  index.Add(2, Record{{"N", "Bob"}});
  const auto* alice = index.Find("N", "Alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(*alice, (std::vector<RecordId>{0, 1}));
  EXPECT_EQ(index.Find("N", "Carol"), nullptr);
  EXPECT_EQ(index.num_postings(), 4u);  // N:Alice, N:Bob, P:1, P:2
}

TEST(InvertedIndexTest, CandidatesUnionPostings) {
  InvertedIndex index;
  index.Add(0, Record{{"N", "Alice"}, {"P", "1"}});
  index.Add(1, Record{{"P", "1"}});
  index.Add(2, Record{{"N", "Bob"}});
  Record probe{{"N", "Alice"}, {"P", "1"}};
  EXPECT_EQ(index.Candidates(probe), (std::vector<RecordId>{0, 1}));
  // Restricting to labels narrows the candidates.
  EXPECT_EQ(index.Candidates(probe, {"N"}), (std::vector<RecordId>{0}));
  EXPECT_TRUE(index.Candidates(Record{{"X", "x"}}).empty());
}

// ---------------------------------------------------------------------------
// RecordStore
// ---------------------------------------------------------------------------

TEST(RecordStoreTest, AppendAssignsPositionIds) {
  RecordStore store;
  EXPECT_EQ(store.Append(Record{{"N", "Alice"}}), 0u);
  EXPECT_EQ(store.Append(Record{{"N", "Bob"}}), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Get(0)->Contains("N", "Alice"));
  EXPECT_TRUE(store.Get(1)->Contains("N", "Bob"));
  EXPECT_TRUE(store.Get(9).status().IsOutOfRange());
}

TEST(RecordStoreTest, AppendStripsForeignProvenance) {
  Record foreign{{"N", "Alice"}};
  foreign.AddSource(77);
  RecordStore store;
  RecordId id = store.Append(foreign);
  EXPECT_EQ(id, 0u);
  EXPECT_FALSE(store.Get(0)->HasSource(77));
}

TEST(RecordStoreTest, LookupHitsIndex) {
  RecordStore store;
  store.Append(Record{{"N", "Alice"}, {"P", "123"}});
  store.Append(Record{{"N", "Alice"}});
  EXPECT_EQ(store.Lookup("N", "Alice"), (std::vector<RecordId>{0, 1}));
  EXPECT_TRUE(store.Lookup("N", "Zed").empty());
}

TEST(RecordStoreTest, DossierMatchesDippingResult) {
  // The §2.4 example: the index-accelerated dossier must equal the
  // resolver-based D(R, E, q) for shared-value matching.
  Database db;
  db.Add(Record{{"N", "Alice"}, {"P", "123"}});
  db.Add(Record{{"N", "Alice"}, {"C", "999"}});
  db.Add(Record{{"N", "Bob"}, {"P", "987"}});
  RecordStore store = RecordStore::FromDatabase(db);
  Record q{{"N", "Alice"}};

  std::vector<RecordId> members;
  auto fast = store.Dossier(q, {"N"}, &members);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(members, (std::vector<RecordId>{0, 1}));

  auto match = RuleMatch::SharedValue({"N"});
  UnionMerge merge;
  TransitiveClosureResolver resolver(*match, merge);
  auto slow = DippingResult(db, resolver, q);
  ASSERT_TRUE(slow.ok());
  // Same attribute content (provenance bookkeeping differs).
  EXPECT_EQ(fast->size(), slow->size());
  for (const auto& a : *slow) {
    EXPECT_TRUE(fast->Contains(a.label, a.value)) << a.ToString();
  }
}

TEST(RecordStoreTest, DossierFollowsTransitiveChains) {
  RecordStore store;
  store.Append(Record{{"N", "A"}, {"P", "1"}});
  store.Append(Record{{"P", "1"}, {"E", "x"}});
  store.Append(Record{{"E", "x"}, {"Z", "9"}});
  store.Append(Record{{"Z", "8"}});  // unreachable
  std::vector<RecordId> members;
  auto dossier = store.Dossier(Record{{"N", "A"}}, {}, &members);
  ASSERT_TRUE(dossier.ok());
  EXPECT_EQ(members, (std::vector<RecordId>{0, 1, 2}));
  EXPECT_TRUE(dossier->Contains("Z", "9"));
  EXPECT_FALSE(dossier->Contains("Z", "8"));
}

TEST(RecordStoreTest, DossierOnUnknownQueryIsJustTheQuery) {
  RecordStore store;
  store.Append(Record{{"N", "A"}});
  auto dossier = store.Dossier(Record{{"N", "Zed"}, {"P", "7"}});
  ASSERT_TRUE(dossier.ok());
  EXPECT_EQ(dossier->size(), 2u);
}

TEST(RecordStoreTest, DossierAgreesWithResolverOnPopulations) {
  GeneratorConfig config;
  config.n = 8;
  config.perturb_prob = 0.1;
  config.seed = 4242;
  auto data = GeneratePopulation(config, 6, 5);
  ASSERT_TRUE(data.ok());
  RecordStore store = RecordStore::FromDatabase(data->records);

  std::vector<std::string> labels;
  for (std::size_t l = 0; l < config.n; ++l) {
    labels.push_back(StrCat("L", std::to_string(l)));
  }
  auto match = RuleMatch::SharedValue(labels);
  UnionMerge merge;
  TransitiveClosureResolver resolver(*match, merge);

  Record query;
  for (const auto& a : data->references[2]) {
    query.Insert(a);
    if (query.size() == 2) break;
  }
  auto fast = store.Dossier(query, labels);
  auto slow = DippingResult(data->records, resolver, query);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->size(), slow->size());
  for (const auto& a : *slow) {
    EXPECT_TRUE(fast->Contains(a.label, a.value));
  }
}

}  // namespace
}  // namespace infoleak
