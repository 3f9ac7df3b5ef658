#include "apps/frontier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "anon/bridge.h"
#include "anon/generalized_er.h"
#include "anon/hierarchy.h"
#include "anon/kanonymity.h"
#include "anon/lattice.h"
#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "anon/utility.h"
#include "core/column_bank.h"
#include "core/leakage.h"
#include "er/transitive.h"
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

/// Applies the mechanism at one grid point: the first lattice node (by
/// ascending height, then lexicographic — the minimality order) whose
/// generalization is k-anonymous within the suppression budget AND whose
/// surviving table is distinct-l-diverse and t-close. Writes the chosen
/// node and the published table into `point`; `found` stays false when no
/// node qualifies (the mechanism refuses to publish).
Result<Table> ApplyMechanism(const Table& base, const MechanismSchema& schema,
                             FrontierPoint* point) {
  std::vector<int> max_levels;
  for (const auto& qi : schema.qis) {
    max_levels.push_back(qi.hierarchy->max_level());
  }
  Result<Table> published = Status::NotFound(
      "no lattice node satisfies the mechanism at this grid point");
  Status iteration_error = Status::OK();
  ForEachNodeByHeight(max_levels, [&](const std::vector<int>& levels) {
    auto generalized = GeneralizeTable(base, schema.qis, levels);
    if (!generalized.ok()) {
      iteration_error = generalized.status();
      return true;
    }
    auto classes = EquivalenceClasses(*generalized, schema.qi_columns);
    if (!classes.ok()) {
      iteration_error = classes.status();
      return true;
    }
    std::vector<std::size_t> to_suppress;
    for (const auto& cls : *classes) {
      if (cls.size() < point->k) {
        to_suppress.insert(to_suppress.end(), cls.begin(), cls.end());
      }
    }
    if (to_suppress.size() > point->max_suppressed) return false;
    // Survivors must themselves form classes of size k — in particular the
    // degenerate suppress-every-row "solution" is never accepted.
    if (base.num_rows() - to_suppress.size() < point->k) return false;

    std::sort(to_suppress.begin(), to_suppress.end());
    auto kept = Table::Create(generalized->columns());
    if (!kept.ok()) {
      iteration_error = kept.status();
      return true;
    }
    std::size_t next = 0;
    for (std::size_t row = 0; row < generalized->num_rows(); ++row) {
      if (next < to_suppress.size() && to_suppress[next] == row) {
        ++next;
        continue;
      }
      Status added = kept->AddRow(generalized->row(row));
      if (!added.ok()) {
        iteration_error = added;
        return true;
      }
    }
    if (point->l > 1) {
      auto diverse = IsDistinctLDiverse(*kept, schema.qi_columns,
                                        schema.sensitive, point->l);
      if (!diverse.ok()) {
        iteration_error = diverse.status();
        return true;
      }
      if (!*diverse) return false;
    }
    if (point->t < 1.0) {
      auto close =
          IsTClose(*kept, schema.qi_columns, schema.sensitive, point->t);
      if (!close.ok()) {
        iteration_error = close.status();
        return true;
      }
      if (!*close) return false;
    }
    point->found = true;
    point->levels = levels;
    point->height = 0;
    for (int level : levels) point->height += level;
    point->suppressed = to_suppress.size();
    published = std::move(kept).value();
    return true;
  });
  if (!iteration_error.ok()) return iteration_error;
  return published;
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

  // The adversary: generalization-aware ER over the published table (§3.1).
  auto resolved = [&]() -> Result<Database> {
    obs::PhaseTimer resolve_phase(ctx, obs::Phase::kResolve);
    auto db = TableToDatabase(*published);
    if (!db.ok()) return db.status();
    GeneralizedRuleMatch match(MatchRules{{"Zip", "Age"}});
    GeneralizationMerge merge;
    TransitiveClosureResolver er(match, merge);
    return er.Resolve(*db, nullptr);
  }();
  if (!resolved.ok()) return resolved.status();

  // Per person: align every resolved entity to the person's exact record
  // and take the set leakage (max over entities) through the columnar
  // plane — the worst dossier the adversary can pin on that person. The
  // entities are interned once per point; each person's alignment is an
  // id-space rewrite the bank reads without hashing a cell string.
  obs::PhaseTimer eval_phase(ctx, obs::Phase::kEval);
  GeneralizedAligner aligner(*resolved);
  WeightModel unit;
  double total = 0.0;
  point->worst_leakage = 0.0;
  point->worst_person = registry.num_rows() > 0 ? 0 : -1;
  for (std::size_t person = 0; person < registry.num_rows(); ++person) {
    if (cancel && cancel()) {
      return Status::DeadlineExceeded("frontier sweep cancelled");
    }
    auto reference = RowToRecord(registry, person);
    if (!reference.ok()) return reference.status();
    PreparedReference prepared(*reference, unit);
    ColumnBank bank(prepared);
    bank.ExtendFrom(aligner.AlignTo(*reference));
    if (ctx != nullptr) ctx->AddRecordsScanned(bank.size());
    std::ptrdiff_t argmax = -1;
    ColumnScanOptions scan;
    scan.num_threads = 1;  // the pool parallelizes across points, not within
    scan.cancel = cancel;
    auto leakage = SetLeakageColumnar(bank, engine, &argmax, scan);
    if (!leakage.ok()) return leakage.status();
    total += *leakage;
    if (*leakage > point->worst_leakage) {
      point->worst_leakage = *leakage;
      point->worst_person = static_cast<std::ptrdiff_t>(person);
    }
  }
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
  static const ExactLeakage kExactEngine;
  const LeakageEngine* engine =
      config.measure == Measure::kExpectedF1
          ? static_cast<const LeakageEngine*>(&kExactEngine)
          : MeasureEngineSingleton(config.measure);

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
