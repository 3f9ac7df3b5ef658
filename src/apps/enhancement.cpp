#include "apps/enhancement.h"

#include <algorithm>

namespace infoleak {

VerificationCostFn DefaultVerificationCost() {
  return [](const Attribute& a) { return 1.0 - a.confidence; };
}

Record ComposeAll(const Database& db) {
  Record composite;
  for (const auto& r : db) composite.MergeFrom(r);
  return composite;
}

namespace {

/// Composite after raising one base attribute's confidence to 1.
Record ComposeWithVerified(const Database& db, std::size_t record_index,
                           const Attribute& attr) {
  Record composite;
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (i != record_index) {
      composite.MergeFrom(db[i]);
      continue;
    }
    Record boosted = db[i];
    // SetConfidence cannot fail: attr comes from db[i] itself.
    boosted.SetConfidence(attr.label, attr.value, 1.0);
    composite.MergeFrom(boosted);
  }
  return composite;
}

}  // namespace

Result<std::vector<EnhancementOption>> RankEnhancements(
    const Database& db, const WeightModel& wm, const LeakageEngine& engine,
    const VerificationCostFn& cost_fn) {
  const Record rc = ComposeAll(db);
  const Record rp = rc.WithFullConfidence();
  // rp is fixed across all candidate verifications: prepare it once and
  // stream the perturbed composites through one workspace.
  const PreparedReference ref(rp, wm);
  LeakageWorkspace ws;
  PreparedRecord scratch;
  auto evaluate = [&](const Record& composite) -> Result<double> {
    scratch.Assign(composite, ref);
    return engine.RecordLeakageColumnar(scratch.view(), ref, &ws);
  };
  Result<double> base = evaluate(rc);
  if (!base.ok()) return base.status();

  std::vector<EnhancementOption> options;
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (const auto& a : db[i]) {
      const double cost = cost_fn(a);
      if (cost <= 0.0) continue;  // already certain (or priced free)
      const Record rc_prime = ComposeWithVerified(db, i, a);
      Result<double> after = evaluate(rc_prime);
      if (!after.ok()) return after.status();
      EnhancementOption opt;
      opt.record_index = i;
      opt.attribute = a;
      opt.certainty_before = *base;
      opt.certainty_after = *after;
      opt.gain = *after - *base;
      opt.cost = cost;
      opt.ratio = opt.gain / cost;
      options.push_back(std::move(opt));
    }
  }
  std::stable_sort(options.begin(), options.end(),
                   [](const EnhancementOption& a, const EnhancementOption& b) {
                     return a.ratio > b.ratio;
                   });
  return options;
}

Result<EnhancementOption> BestEnhancement(const Database& db,
                                          const WeightModel& wm,
                                          const LeakageEngine& engine,
                                          const VerificationCostFn& cost_fn) {
  auto ranked = RankEnhancements(db, wm, engine, cost_fn);
  if (!ranked.ok()) return ranked.status();
  if (ranked->empty()) {
    return Status::NotFound("every attribute is already fully certain");
  }
  return (*ranked)[0];
}

Result<EnhancementPlan> GreedyEnhancementPlan(
    const Database& db, double max_budget, const WeightModel& wm,
    const LeakageEngine& engine, const VerificationCostFn& cost_fn) {
  EnhancementPlan plan;
  {
    const Record rc = ComposeAll(db);
    Result<double> base = engine.RecordLeakage(rc, rc.WithFullConfidence(), wm);
    if (!base.ok()) return base.status();
    plan.certainty_before = *base;
    plan.certainty_after = *base;
  }

  Database current = db;
  double budget_left = max_budget;
  while (true) {
    auto ranked = RankEnhancements(current, wm, engine, cost_fn);
    if (!ranked.ok()) return ranked.status();
    const EnhancementOption* pick = nullptr;
    for (const auto& opt : *ranked) {
      if (opt.cost <= budget_left && opt.gain > 1e-15) {
        pick = &opt;
        break;
      }
    }
    if (pick == nullptr) break;

    // Apply the verification to the working database.
    std::vector<Record> records(current.begin(), current.end());
    records[pick->record_index].SetConfidence(pick->attribute.label,
                                              pick->attribute.value, 1.0);
    budget_left -= pick->cost;
    plan.total_cost += pick->cost;
    plan.certainty_after = pick->certainty_after;
    plan.steps.push_back(*pick);
    current = Database(std::move(records));
  }
  return plan;
}

}  // namespace infoleak
