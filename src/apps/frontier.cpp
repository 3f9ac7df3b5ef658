#include "apps/frontier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "anon/bridge.h"
#include "anon/generalized_er.h"
#include "anon/hierarchy.h"
#include "anon/kanonymity.h"
#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "anon/utility.h"
#include "core/column_bank.h"
#include "core/leakage.h"
#include "obs/log.h"
#include "obs/request.h"

namespace infoleak {
namespace {

/// The registry's fixed mechanism vocabulary: Zip (4 digits) under suffix
/// suppression, Age under widening intervals, Disease sensitive. The
/// hierarchies live for the whole sweep; QuasiIdentifier borrows them.
struct MechanismSchema {
  SuffixSuppressionHierarchy zip{4};
  IntervalHierarchy age{{10, 30, 100}};
  std::vector<QuasiIdentifier> qis{{"Zip", &zip}, {"Age", &age}};
  std::vector<std::string> qi_columns{"Zip", "Age"};
  std::string sensitive = "Disease";
};

/// Applies the mechanism at one grid point: the minimal generalization
/// that is k-anonymous within the suppression budget AND whose published
/// table is distinct-l-diverse and t-close. Writes the chosen node into
/// `point`; `found` stays false when no node qualifies (the mechanism
/// refuses to publish).
Result<Table> ApplyMechanism(const Table& base, const MechanismSchema& schema,
                             FrontierPoint* point) {
  auto accept = [&](const Table& published) -> Result<bool> {
    if (point->l > 1) {
      auto diverse = IsDistinctLDiverse(published, schema.qi_columns,
                                        schema.sensitive, point->l);
      if (!diverse.ok() || !*diverse) return diverse;
    }
    if (point->t < 1.0) {
      return IsTClose(published, schema.qi_columns, schema.sensitive,
                      point->t);
    }
    return true;
  };
  auto chosen = MinimalGeneralization(base, schema.qis, point->k,
                                      point->max_suppressed, accept);
  if (!chosen.ok()) return chosen.status();
  point->found = true;
  point->levels = chosen->levels;
  point->height = 0;
  for (int level : chosen->levels) point->height += level;
  point->suppressed = chosen->suppressed.size();
  return std::move(chosen->table);
}

/// Evaluates one grid point end to end, charging the anonymize/resolve/eval
/// phases to `ctx` (borrowed, may be null on un-instrumented callers).
Status EvaluatePoint(const Table& registry, const Table& base,
                     const MechanismSchema& schema,
                     const LeakageEngine& engine,
                     const std::function<bool()>& cancel,
                     obs::RequestContext* ctx, FrontierPoint* point) {
  Result<Table> published = [&] {
    obs::PhaseTimer anonymize_phase(ctx, obs::Phase::kAnonymize);
    return ApplyMechanism(base, schema, point);
  }();
  if (!published.ok()) {
    if (published.status().IsNotFound()) return Status::OK();  // !found
    return published.status();
  }

  auto prec = GeneralizationPrecision(schema.qis, point->levels);
  if (!prec.ok()) return prec.status();
  point->prec = *prec;
  auto discern = DiscernibilityMetric(*published, schema.qi_columns);
  if (!discern.ok()) return discern.status();
  point->discernibility = *discern;
  auto avg = AverageClassSizeMetric(*published, schema.qi_columns, point->k);
  if (!avg.ok()) return avg.status();
  point->avg_class = *avg;

  // The adversary: generalization-aware transitive-closure ER over the
  // published table (§3.1), resolved per quasi-identifier class.
  auto resolved = [&]() -> Result<Database> {
    obs::PhaseTimer resolve_phase(ctx, obs::Phase::kResolve);
    auto db = TableToDatabase(*published);
    if (!db.ok()) return db.status();
    GeneralizedRuleMatch match(MatchRules{{"Zip", "Age"}});
    GeneralizationMerge merge;
    GeneralizedClassResolver er(match, merge);
    return er.Resolve(*db, nullptr);
  }();
  if (!resolved.ok()) return resolved.status();

  // Per person: align every resolved entity to the person's exact record
  // and take the set leakage (max over entities) through the columnar
  // plane — the worst dossier the adversary can pin on that person. The
  // entities are interned once per point. Persons whose class keys agree
  // (GeneralizedAligner::ClassKey, memoized per column value) fill
  // byte-identical banks, so each class is aligned, banked and scanned
  // once, at its first member, and its value is charged to every member in
  // person order: `total` and the worst person keep their summation order
  // and tie rule.
  obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
  GeneralizedAligner aligner(*resolved);
  WeightModel unit;
  std::vector<std::unordered_map<std::string_view, std::vector<uint32_t>>>
      column_keys(registry.num_columns());
  std::map<std::vector<uint32_t>, std::size_t> class_of;
  std::vector<double> class_leakage;
  std::vector<uint32_t> key;
  double total = 0.0;
  RunningMax worst;
  for (std::size_t person = 0; person < registry.num_rows(); ++person) {
    if (cancel && cancel()) {
      return Status::DeadlineExceeded("frontier sweep cancelled");
    }
    key.clear();
    for (std::size_t c = 0; c < registry.num_columns(); ++c) {
      const std::string& value = registry.at(person, c);
      auto [it, fresh] = column_keys[c].try_emplace(value);
      if (fresh) it->second = aligner.ClassKey(registry.columns()[c], value);
      key.insert(key.end(), it->second.begin(), it->second.end());
    }
    auto [cls, fresh] = class_of.try_emplace(key, class_leakage.size());
    if (fresh) {
      auto reference = RowToRecord(registry, person);
      if (!reference.ok()) return reference.status();
      PreparedReference prepared(*reference, unit);
      ColumnBank bank(prepared);
      bank.ExtendFrom(aligner.AlignTo(*reference));
      if (ctx != nullptr) ctx->AddRecordsScanned(bank.size());
      auto leakage = SetLeakageColumnar(bank, engine);
      if (!leakage.ok()) return leakage.status();
      class_leakage.push_back(*leakage);
    }
    const double leakage = class_leakage[cls->second];
    total += leakage;
    worst.Offer(leakage, static_cast<std::ptrdiff_t>(person));
  }
  point->worst_leakage = worst.value();
  point->worst_person = worst.index();
  point->mean_leakage =
      registry.num_rows() == 0
          ? 0.0
          : total / static_cast<double>(registry.num_rows());
  return Status::OK();
}

/// %.17g, the JsonNumber convention: integral values without a fraction,
/// full round-trip precision otherwise. Local because src/apps must not
/// depend on the serving layer.
std::string JsonNum(double v) {
  if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Result<FrontierResult> RunFrontier(const FrontierConfig& config) {
  if (config.grid.ks.empty() || config.grid.ls.empty() ||
      config.grid.ts.empty() || config.grid.suppressions.empty()) {
    return Status::InvalidArgument("frontier grid has an empty axis");
  }
  for (std::size_t k : config.grid.ks) {
    if (k == 0) return Status::InvalidArgument("grid k values must be >= 1");
  }
  for (std::size_t l : config.grid.ls) {
    if (l == 0) return Status::InvalidArgument("grid l values must be >= 1");
  }
  for (double t : config.grid.ts) {
    if (!(t >= 0.0 && t <= 1.0)) {
      return Status::InvalidArgument("grid t values must be in [0, 1]");
    }
  }
  auto registry = GenerateRegistryTable(config.registry);
  if (!registry.ok()) return registry.status();
  auto base = registry->DropColumns({"Name"});
  if (!base.ok()) return base.status();
  MechanismSchema schema;
  // Expected F1 is evaluated exactly (Algorithm 1); every other measure
  // has its one engine.
  INFOLEAK_ASSIGN_OR_RETURN(
      const LeakageEngine* engine,
      LookupEngine(config.measure,
                   config.measure == Measure::kExpectedF1
                       ? std::optional<std::string_view>("exact")
                       : std::nullopt));

  FrontierResult result;
  result.rows = registry->num_rows();
  for (std::size_t k : config.grid.ks) {
    for (std::size_t l : config.grid.ls) {
      for (double t : config.grid.ts) {
        for (std::size_t budget : config.grid.suppressions) {
          FrontierPoint point;
          point.k = k;
          point.l = l;
          point.t = t;
          point.max_suppressed = budget;
          result.points.push_back(std::move(point));
        }
      }
    }
  }

  // Fan the grid across the pool. Workers claim points off an atomic
  // cursor and write results by index, so the output order (and every
  // byte of it) is independent of scheduling.
  std::size_t workers = config.num_threads != 0
                            ? config.num_threads
                            : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min(workers, result.points.size());
  std::atomic<std::size_t> next{0};
  std::vector<Status> errors(result.points.size(), Status::OK());
  auto run_worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= result.points.size()) return;
      FrontierPoint& point = result.points[i];
      obs::RequestContext ctx;
      ctx.set_verb("frontier");
      Status status = EvaluatePoint(*registry, *base, schema, *engine,
                                    config.cancel, &ctx, &point);
      point.anonymize_nanos = ctx.phase_nanos(obs::Phase::kAnonymize);
      point.resolve_nanos = ctx.phase_nanos(obs::Phase::kResolve);
      point.eval_nanos = ctx.phase_nanos(obs::Phase::kEval);
      if (!status.ok()) {
        errors[i] = status;
        ctx.set_outcome("error");
      } else {
        ctx.set_outcome("ok");
      }
      if (config.log_points) obs::EventLog::Global().Record(ctx.Finish());
    }
  };
  if (workers <= 1) {
    run_worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(run_worker);
    for (auto& thread : pool) thread.join();
  }
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }
  return result;
}

std::string FrontierPointLine(const FrontierPoint& point,
                              const FrontierConfig& config) {
  std::string line = "{\"seed\":" + std::to_string(config.registry.seed) +
                     ",\"rows\":" + std::to_string(config.registry.rows) +
                     ",\"measure\":\"" +
                     std::string(MeasureName(config.measure)) + "\"" +
                     ",\"k\":" + std::to_string(point.k) +
                     ",\"l\":" + std::to_string(point.l) +
                     ",\"t\":" + JsonNum(point.t) +
                     ",\"suppress\":" + std::to_string(point.max_suppressed) +
                     ",\"found\":" + (point.found ? "true" : "false");
  if (point.found) {
    line += ",\"levels\":[";
    for (std::size_t i = 0; i < point.levels.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(point.levels[i]);
    }
    line += "],\"height\":" + std::to_string(point.height) +
            ",\"suppressed\":" + std::to_string(point.suppressed) +
            ",\"prec\":" + JsonNum(point.prec) +
            ",\"discern\":" + JsonNum(point.discernibility) +
            ",\"c_avg\":" + JsonNum(point.avg_class) +
            ",\"worst_leakage\":" + JsonNum(point.worst_leakage) +
            ",\"mean_leakage\":" + JsonNum(point.mean_leakage) +
            ",\"worst_person\":" + std::to_string(point.worst_person);
  }
  line += '}';
  return line;
}

}  // namespace infoleak
