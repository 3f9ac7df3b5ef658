#include "check/frontier_check.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "anon/bridge.h"
#include "anon/generalized_er.h"
#include "anon/hierarchy.h"
#include "anon/kanonymity.h"
#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "apps/frontier.h"
#include "check/case_gen.h"
#include "core/database.h"
#include "core/leakage.h"
#include "core/measure_family.h"
#include "er/transitive.h"
#include "gen/population.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace infoleak::check {
namespace {

/// The frontier's fixed mechanism vocabulary (apps/frontier.cpp): Zip
/// under 4-level suffix suppression, Age under widening intervals, Disease
/// sensitive.
struct Mechanism {
  SuffixSuppressionHierarchy zip{4};
  IntervalHierarchy age{{10, 30, 100}};
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}, {"Age", &age}};
  std::vector<std::string> qi_columns{"Zip", "Age"};
  std::string sensitive = "Disease";
};

/// One grid point as the reference publishes it, with the adversary's
/// resolved entities.
struct ReferencePoint {
  bool found = false;
  std::vector<int> levels;
  std::size_t suppressed = 0;
  Database entities;
};

/// The reference publisher: generalizes the whole table at every lattice
/// node in (height, lexicographic) order and takes the first node whose
/// classes smaller than k fit the suppression budget, leave at least k rows,
/// and whose published table passes the l and t tests. The adversary then
/// resolves it with transitive-closure ER.
Result<ReferencePoint> ReferencePublish(const Table& base,
                                        const Mechanism& mechanism,
                                        const FrontierPoint& at) {
  ReferencePoint out;
  if (base.num_rows() < at.k) return out;
  std::vector<std::vector<int>> nodes;
  for (int zip = 0; zip <= mechanism.zip.max_level(); ++zip) {
    for (int age = 0; age <= mechanism.age.max_level(); ++age) {
      nodes.push_back({zip, age});
    }
  }
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const std::vector<int>& a, const std::vector<int>& b) {
                     return a[0] + a[1] < b[0] + b[1];
                   });
  for (const std::vector<int>& levels : nodes) {
    INFOLEAK_ASSIGN_OR_RETURN(Table generalized,
                              GeneralizeTable(base, mechanism.qis, levels));
    INFOLEAK_ASSIGN_OR_RETURN(
        auto classes, EquivalenceClasses(generalized, mechanism.qi_columns));
    std::vector<bool> dropped(generalized.num_rows(), false);
    std::size_t suppressed = 0;
    for (const auto& cls : classes) {
      if (cls.size() >= at.k) continue;
      for (std::size_t row : cls) dropped[row] = true;
      suppressed += cls.size();
    }
    if (suppressed > at.max_suppressed ||
        generalized.num_rows() - suppressed < at.k) {
      continue;
    }
    INFOLEAK_ASSIGN_OR_RETURN(Table published,
                              Table::Create(generalized.columns()));
    for (std::size_t row = 0; row < generalized.num_rows(); ++row) {
      if (!dropped[row]) {
        INFOLEAK_RETURN_IF_ERROR(published.AddRow(generalized.row(row)));
      }
    }
    if (at.l > 1) {
      INFOLEAK_ASSIGN_OR_RETURN(
          bool diverse,
          IsDistinctLDiverse(published, mechanism.qi_columns,
                             mechanism.sensitive, at.l));
      if (!diverse) continue;
    }
    if (at.t < 1.0) {
      INFOLEAK_ASSIGN_OR_RETURN(
          bool close, IsTClose(published, mechanism.qi_columns,
                               mechanism.sensitive, at.t));
      if (!close) continue;
    }
    out.found = true;
    out.levels = levels;
    out.suppressed = suppressed;
    INFOLEAK_ASSIGN_OR_RETURN(Database db, TableToDatabase(published));
    GeneralizedRuleMatch match(MatchRules{{"Zip", "Age"}});
    GeneralizationMerge merge;
    TransitiveClosureResolver er(match, merge);
    INFOLEAK_ASSIGN_OR_RETURN(out.entities, er.Resolve(db, nullptr));
    return out;
  }
  return out;
}

struct Priced {
  double worst = 0.0;
  double mean = 0.0;
  std::ptrdiff_t worst_person = -1;
};

/// The reference price: every person, in row order, against every entity
/// aligned to that person record by record; the worst person is the first
/// attaining the maximum.
Result<Priced> ReferencePrice(const Table& registry, const Database& entities,
                              const LeakageEngine& engine) {
  const WeightModel unit;
  Priced out;
  double total = 0.0;
  for (std::size_t person = 0; person < registry.num_rows(); ++person) {
    INFOLEAK_ASSIGN_OR_RETURN(Record p, RowToRecord(registry, person));
    Database aligned;
    for (const Record& e : entities) {
      aligned.Add(AlignGeneralizedToReference(e, p));
    }
    INFOLEAK_ASSIGN_OR_RETURN(double leakage,
                              SetLeakage(aligned, p, unit, engine));
    total += leakage;
    if (out.worst_person < 0 || leakage > out.worst) {
      out.worst = leakage;
      out.worst_person = static_cast<std::ptrdiff_t>(person);
    }
  }
  out.mean = total / static_cast<double>(registry.num_rows());
  return out;
}

std::string Levels(const std::vector<int>& levels) {
  std::string out = "[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(levels[i]);
  }
  return out + "]";
}

std::string Outcome(bool found, const std::vector<int>& levels,
                    std::size_t suppressed) {
  if (!found) return "not found";
  return "levels " + Levels(levels) + ", suppressed " +
         std::to_string(suppressed);
}

std::string Price(double worst, double mean, std::ptrdiff_t worst_person) {
  return "worst " + FormatDoubleRoundTrip(worst) + ", mean " +
         FormatDoubleRoundTrip(mean) + ", worst_person " +
         std::to_string(worst_person);
}

}  // namespace

void CheckFrontier(uint64_t seed, std::size_t cases, std::size_t* comparisons,
                   std::vector<Finding>* findings) {
  const Mechanism mechanism;
  for (std::size_t i = 0; i < cases; ++i) {
    FrontierConfig config;
    config.registry.seed = CaseGenerator::CaseSeed(seed, i);
    Rng rng(config.registry.seed);
    config.registry.rows = 2 + rng.NextBounded(39);
    config.registry.zip_prefixes = 1 + rng.NextBounded(6);
    config.registry.diseases = 1 + rng.NextBounded(6);
    config.grid.ks = {1 + rng.NextBounded(4), 2 + rng.NextBounded(8)};
    config.grid.ls = {1 + rng.NextBounded(3)};
    config.grid.ts = {rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.2, 1.0)};
    config.grid.suppressions = {rng.NextBounded(6)};
    const std::string where =
        "frontier seed " + std::to_string(config.registry.seed) + ", rows " +
        std::to_string(config.registry.rows) + ", zip prefixes " +
        std::to_string(config.registry.zip_prefixes) + ", diseases " +
        std::to_string(config.registry.diseases);
    auto fail = [&](const std::string& detail) {
      findings->push_back(Finding{"frontier", where + ": " + detail, {}});
    };

    ++*comparisons;
    const Result<Table> registry = GenerateRegistryTable(config.registry);
    if (!registry.ok()) {
      fail("registry: " + registry.status().message());
      continue;
    }
    const Result<Table> base = registry->DropColumns({"Name"});
    if (!base.ok()) {
      fail("registry: " + base.status().message());
      continue;
    }
    std::vector<Result<ReferencePoint>> reference;
    for (std::string_view name : kMeasureNames) {
      config.measure = *ParseMeasure(name);
      const Result<FrontierResult> got = RunFrontier(config);
      ++*comparisons;
      if (!got.ok()) {
        fail(std::string(name) + ": " + got.status().message());
        continue;
      }
      const Result<const LeakageEngine*> engine = LookupEngine(
          config.measure, config.measure == Measure::kExpectedF1
                              ? std::optional<std::string_view>("exact")
                              : std::nullopt);
      if (!engine.ok()) {
        fail(std::string(name) + ": " + engine.status().message());
        continue;
      }
      for (std::size_t j = 0; j < got->points.size(); ++j) {
        const FrontierPoint& point = got->points[j];
        if (reference.size() <= j) {
          reference.push_back(ReferencePublish(*base, mechanism, point));
        }
        const std::string at =
            std::string(name) + " point k=" + std::to_string(point.k) +
            " l=" + std::to_string(point.l) +
            " t=" + FormatDoubleRoundTrip(point.t) +
            " suppress=" + std::to_string(point.max_suppressed) + ": ";
        ++*comparisons;
        const Result<ReferencePoint>& want = reference[j];
        if (!want.ok()) {
          fail(at + "reference publish failed: " + want.status().message());
          continue;
        }
        if (point.found != want->found ||
            (point.found && (point.levels != want->levels ||
                             point.suppressed != want->suppressed))) {
          fail(at + "frontier " +
               Outcome(point.found, point.levels, point.suppressed) +
               " vs reference " +
               Outcome(want->found, want->levels, want->suppressed));
          continue;
        }
        if (!point.found) continue;
        ++*comparisons;
        const Result<Priced> priced =
            ReferencePrice(*registry, want->entities, **engine);
        if (!priced.ok()) {
          fail(at + "reference price failed: " + priced.status().message());
          continue;
        }
        if (point.worst_leakage != priced->worst ||
            point.mean_leakage != priced->mean ||
            point.worst_person != priced->worst_person) {
          fail(at + "frontier " +
               Price(point.worst_leakage, point.mean_leakage,
                     point.worst_person) +
               " vs reference " +
               Price(priced->worst, priced->mean, priced->worst_person));
        }
      }
    }
  }
}

}  // namespace infoleak::check
