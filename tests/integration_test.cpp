// End-to-end integration tests: whole pipelines crossing every library —
// generation, adversary operators, entity resolution, leakage engines, and
// the defender-side applications.

#include <gtest/gtest.h>

#include "util/string_util.h"

#include "apps/disinformation.h"
#include "apps/incremental.h"
#include "apps/population.h"
#include "core/record_io.h"
#include "er/blocking.h"
#include "er/swoosh.h"
#include "er/transitive.h"
#include "gen/population.h"
#include "ops/augment.h"
#include "ops/error_correction.h"

namespace infoleak {
namespace {

TEST(IntegrationTest, AdversaryPipelineMonotonicallyImprovesLeakage) {
  // Eve's full §2.4 arsenal as one pipeline: fix misspellings, infer zip
  // codes from addresses, then resolve entities. Each stage must not lose
  // leakage and the pipeline must beat raw set leakage.
  Record p{{"N", "Alice"}, {"A", "123 Main"}, {"Z", "94305"}, {"P", "555"}};
  Database db;
  db.Add(Record{{"N", "Alicd"}, {"A", "123 Main"}});   // misspelled name
  db.Add(Record{{"N", "Alice"}, {"P", "555"}});
  db.Add(Record{{"N", "Bob"}, {"P", "777"}});

  ErrorCorrectionOperator fix(1);
  fix.AddDictionary("N", {"Alice", "Bob"});
  AugmentOperator infer;
  infer.AddRule("A", "123 Main", "Z", "94305");
  auto match = RuleMatch::SharedValue({"N"});
  UnionMerge merge;
  SwooshResolver resolver(*match, merge);
  ErOperator er(resolver);
  PipelineOperator pipeline({&fix, &infer, &er});
  IdentityOperator identity;
  WeightModel unit;
  ExactLeakage engine;

  double raw = InformationLeakage(db, p, identity, unit, engine).value();
  double analyzed = InformationLeakage(db, p, pipeline, unit, engine).value();
  EXPECT_GT(analyzed, raw);
  // After the pipeline the Alice composite holds all 4 reference
  // attributes and nothing else: leakage 1.
  EXPECT_NEAR(analyzed, 1.0, 1e-12);
}

TEST(IntegrationTest, DefenderVsAdversaryRoundTrip) {
  // Alice keeps a release ledger; the store database leaks; she buys
  // disinformation within a budget; leakage drops; the adversary's dipping
  // query afterwards retrieves a polluted dossier.
  Record p{{"N", "alice"}, {"P", "123"}, {"C", "999"}, {"Z", "94305"}};
  RuleMatch match(MatchRules{{"N"}, {"P"}});
  UnionMerge merge;
  SwooshResolver resolver(match, merge);
  ErOperator adversary(resolver);
  WeightModel unit;
  ExactLeakage engine;

  // A release is an incremental report on the ledger, then an Add.
  Database released;
  auto release = [&](const Record& r) -> Result<IncrementalReport> {
    auto report =
        IncrementalLeakageReport(released, p, adversary, r, unit, engine);
    if (report.ok()) released.Add(r);
    return report;
  };
  ASSERT_TRUE(release(Record{{"N", "alice"}, {"P", "123"}}).ok());
  ASSERT_TRUE(release(Record{{"N", "alice"}, {"C", "999"}}).ok());
  double before =
      InformationLeakage(released, p, adversary, unit, engine).value();
  EXPECT_GT(before, 0.8);  // 3 of 4 attributes linked

  RuleMatchFactory factory(MatchRules{{"N"}, {"P"}});
  DisinformationOptimizer optimizer(factory);
  auto candidates = optimizer.GenerateCandidates(released, p, 4, 2);
  ASSERT_TRUE(candidates.ok());
  auto plan = optimizer.OptimizeGreedy(released, p, adversary, *candidates,
                                       8.0, unit, engine);
  ASSERT_TRUE(plan.ok());
  EXPECT_LT(plan->leakage_after, before);

  // Commit the plan to the ledger and verify the trajectory dips.
  for (const auto& chosen : plan->chosen) {
    auto entry = release(chosen.record);
    ASSERT_TRUE(entry.ok());
  }
  EXPECT_NEAR(InformationLeakage(released, p, adversary, unit, engine).value(),
              plan->leakage_after, 1e-12);
}

TEST(IntegrationTest, PopulationPipelineWithBlocking) {
  // Population generation -> blocked ER -> per-person leakage and
  // re-identification, everything deterministic.
  GeneratorConfig config;
  config.n = 8;
  config.perturb_prob = 0.1;
  config.seed = 31337;
  auto data = GeneratePopulation(config, 6, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->records.size(), 30u);

  std::vector<std::string> labels;
  for (std::size_t l = 0; l < config.n; ++l) {
    labels.push_back(StrCat("L", std::to_string(l)));
  }
  auto match = RuleMatch::SharedValue(labels);
  UnionMerge merge;
  LabelValueBlocking blocking(labels);
  BlockedResolver resolver(blocking, *match, merge);
  ErOperator er(resolver);
  ExactLeakage engine;

  auto leakages = PerPersonLeakage(data->records, data->references, er,
                                   data->weights, engine);
  ASSERT_TRUE(leakages.ok());
  ASSERT_EQ(leakages->size(), 6u);
  for (const auto& entry : *leakages) {
    EXPECT_GT(entry.leakage, 0.0);
    EXPECT_LE(entry.leakage, 1.0);
  }

  // Re-identification attributes records only to their true owners.
  auto reid = ReidentifyRecords(data->records, data->references,
                                data->weights, engine, &data->owner);
  ASSERT_TRUE(reid.ok());
  EXPECT_EQ(reid->correct, reid->attributed);
}

TEST(IntegrationTest, SerializationSurvivesFullPipeline) {
  // Generate, serialize to CSV, reload, and verify the reloaded database
  // produces identical leakage under ER.
  GeneratorConfig config;
  config.n = 12;
  config.num_records = 40;
  config.seed = 9;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());

  auto reloaded = LoadDatabaseCsv(SaveDatabaseCsv(data->records));
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), data->records.size());

  ExactLeakage engine;
  auto original = SetLeakage(data->records, data->reference, data->weights,
                             engine);
  auto roundtrip =
      SetLeakage(*reloaded, data->reference, data->weights, engine);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(roundtrip.ok());
  // Confidences pass through decimal text; 9 significant digits keep the
  // leakage equal to ~1e-9.
  EXPECT_NEAR(*original, *roundtrip, 1e-8);
}

TEST(IntegrationTest, AllEnginesAgreeAfterAnalysis) {
  // Resolve a generated database, then confirm naive (where feasible),
  // exact, approximate, and auto engines rank the merged records the same
  // way and agree numerically where they claim exactness.
  GeneratorConfig config;
  config.n = 10;
  config.num_records = 12;
  config.seed = 77;
  config.perturb_prob = 0.2;
  auto data = GenerateDataset(config);
  ASSERT_TRUE(data.ok());

  PredicateMatch match(
      [](const Record& a, const Record& b) {
        WeightModel unit;
        return unit.OverlapWeight(a, b) > 0.0;
      },
      "share-any");
  UnionMerge merge;
  TransitiveClosureResolver resolver(match, merge);
  auto resolved = resolver.Resolve(data->records, nullptr);
  ASSERT_TRUE(resolved.ok());

  ExactLeakage exact;
  AutoLeakage auto_engine;
  ApproxLeakage approx;
  for (const auto& r : *resolved) {
    double e = exact.RecordLeakage(r, data->reference, data->weights)
                   .value_or(-1);
    double a = auto_engine.RecordLeakage(r, data->reference, data->weights)
                   .value_or(-1);
    double x = approx.RecordLeakage(r, data->reference, data->weights)
                   .value_or(-1);
    EXPECT_NEAR(e, a, 1e-12);   // auto dispatches to exact here
    EXPECT_NEAR(e, x, 0.02);    // approximation stays close
  }
}

}  // namespace
}  // namespace infoleak
