#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels.h"

namespace infoleak {

LeakageBounds BoundRecordLeakage(const Record& r, const Record& p,
                                 const WeightModel& wm) {
  LeakageBounds bounds;
  const double wp = wm.TotalWeight(p);
  if (wp <= 0.0 || r.empty()) {
    bounds.upper = 0.0;
    return bounds;
  }

  double mean_all = 0.0;
  for (const auto& a : r) {
    mean_all += wm.Weight(a.label) * a.confidence;
  }

  double lower = 0.0;
  double expected_recall_mass = 0.0;
  for (const auto& b : p) {
    const Attribute* match = r.Find(b.label, b.value);
    if (match == nullptr || match->confidence == 0.0) continue;
    const double wb = wm.Weight(b.label);
    const double mean = mean_all - wb * match->confidence;
    const double denom = mean + wb + wp;
    if (denom > 0.0) {
      lower += 2.0 * match->confidence * wb / denom;
    }
    expected_recall_mass += match->confidence * wb;
  }
  bounds.lower = std::min(lower, 1.0);
  // F1 ≤ 2·Re pointwise, so L ≤ 2·E[Re]; and L ≤ 1 trivially.
  bounds.upper = std::min(1.0, 2.0 * expected_recall_mass / wp);
  // Never report an upper bound below the proven lower bound (floating
  // slack at the boundary).
  bounds.upper = std::max(bounds.upper, bounds.lower);
  return bounds;
}

LeakageBounds BoundRecordLeakageColumnar(const ColumnBank& bank,
                                         std::size_t index,
                                         LeakageWorkspace* ws) {
  return BoundRecordLeakageView(bank.view(index), bank.reference(), ws);
}

LeakageBounds BoundRecordLeakageView(const ColumnRecordView& v,
                                     const PreparedReference& p,
                                     LeakageWorkspace* ws) {
  FillMatchColumns(v, p.size(), ws);
  LeakageBounds bounds;
  kern::Active().bounds(v.conf, v.weight, v.size, ws->match_conf.data(),
                        p.attr_weights().data(), p.size(), p.total_weight(),
                        &bounds.lower, &bounds.upper);
  return bounds;
}

double ApproxLeakageErrorBound(const Record& r, const Record& p,
                               const WeightModel& wm, int order) {
  const double wp = wm.TotalWeight(p);
  double mean_all = 0.0;
  double var_all = 0.0;
  double weight_all = 0.0;
  for (const auto& a : r) {
    const double w = wm.Weight(a.label);
    mean_all += w * a.confidence;
    var_all += w * w * a.confidence * (1.0 - a.confidence);
    weight_all += w;
  }

  double bound = 0.0;
  for (const auto& b : p) {
    const Attribute* match = r.Find(b.label, b.value);
    if (match == nullptr) continue;
    const double pb = match->confidence;
    const double wb = wm.Weight(b.label);
    if (pb <= 0.0 || wb <= 0.0) continue;  // both engines' term is exactly 0
    const double c = wb + wp;
    const double mean = mean_all - wb * pb;
    const double var = var_all - wb * wb * pb * (1.0 - pb);
    const double ymax = weight_all - wb;
    const double denom = mean + c;
    if (denom <= 0.0) continue;  // engine skips; exact term is 0 too (wb>0
                                 // forces denom>0 unless weights vanish)
    const double jensen = wb / denom;
    const double chord =
        ymax > 0.0 ? wb / c + (wb / (ymax + c) - wb / c) * (mean / ymax)
                   : jensen;  // Y is deterministically 0
    const double gap = std::max(0.0, chord - jensen);
    const double corr =
        order >= 2 ? wb / (denom * denom * denom) * std::max(0.0, var) : 0.0;
    const double term_error =
        order >= 2 ? std::max(corr, std::max(0.0, gap - corr)) : gap;
    bound += 2.0 * pb * term_error;
  }
  if (std::isnan(bound)) return std::numeric_limits<double>::infinity();
  return bound;
}

}  // namespace infoleak
