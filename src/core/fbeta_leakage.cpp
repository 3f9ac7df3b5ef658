#include "core/fbeta_leakage.h"

#include <cmath>

#include "core/polynomial.h"
#include "core/possible_worlds.h"

namespace infoleak {

Result<FBetaLeakage> FBetaLeakage::Create(double beta) {
  if (!std::isfinite(beta) || beta <= 0.0) {
    return Status::InvalidArgument("F-beta needs a positive, finite beta");
  }
  return FBetaLeakage(beta);
}

Result<double> FBetaLeakage::Naive(const Record& r, const Record& p,
                                   const WeightModel& wm,
                                   std::size_t max_attributes) const {
  const double base = beta2_ * wm.TotalWeight(p);
  const double factor = beta2_ + 1.0;
  double total = 0.0;
  Status st = ForEachPossibleWorld(
      r,
      [&](const Record& world, double prob) {
        const double denom = wm.TotalWeight(world) + base;
        if (denom > 0.0) {
          total += prob * factor * wm.OverlapWeight(world, p) / denom;
        }
      },
      max_attributes);
  if (!st.ok()) return st;
  return total;
}

Result<double> FBetaLeakage::Exact(const Record& r, const Record& p,
                                   const WeightModel& wm) const {
  if (!wm.IsConstantOver(r, p)) {
    return Status::InvalidArgument(
        "exact F-beta leakage requires a constant weight across the labels "
        "of r and p");
  }
  // Identical to Algorithm 1 with the reference mass scaled by β²: the
  // integral representation 1/X = ∫ t^{X−1} dt holds for fractional X.
  const double m = beta2_ * static_cast<double>(p.size());
  const double factor = beta2_ + 1.0;
  double total = 0.0;
  std::vector<double> y;
  y.reserve(r.size() + 1);
  for (const auto& b : p) {
    const double pb = r.Confidence(b.label, b.value);
    if (pb == 0.0) continue;
    y.assign(1, 1.0);
    for (const auto& a : r) {
      if (a.SameInfo(b)) continue;
      const double c = a.confidence;
      y.push_back(0.0);
      for (std::size_t k = y.size() - 1; k > 0; --k) {
        y[k] = c * y[k] + (1.0 - c) * y[k - 1];
      }
      y[0] *= c;
    }
    total += factor * pb * Poly::IntegrateAgainstPower(y, m);
  }
  return total;
}

Result<double> FBetaLeakage::Approximate(const Record& r, const Record& p,
                                         const WeightModel& wm) const {
  const double base = beta2_ * wm.TotalWeight(p);
  const double factor = beta2_ + 1.0;
  double mean_all = 0.0;
  double var_all = 0.0;
  for (const auto& a : r) {
    const double w = wm.Weight(a.label);
    mean_all += w * a.confidence;
    var_all += w * w * a.confidence * (1.0 - a.confidence);
  }
  double total = 0.0;
  for (const auto& b : p) {
    const Attribute* match = r.Find(b.label, b.value);
    if (match == nullptr || match->confidence == 0.0) continue;
    const double wb = wm.Weight(b.label);
    const double mean = mean_all - wb * match->confidence;
    const double var = var_all - wb * wb * match->confidence *
                                     (1.0 - match->confidence);
    const double denom = mean + wb + base;
    if (denom <= 0.0) continue;
    total += factor * match->confidence *
             (wb / denom + wb / (denom * denom * denom) * var);
  }
  return total;
}

Result<double> FBetaLeakage::SetLeakage(const Database& db, const Record& p,
                                        const WeightModel& wm) const {
  RunningMax best;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const Record& r = db[i];
    Result<double> l = wm.IsConstantOver(r, p) ? Exact(r, p, wm)
                                               : Approximate(r, p, wm);
    if (!l.ok()) return l.status();
    best.Offer(*l, static_cast<std::ptrdiff_t>(i));
  }
  return best.value();
}

}  // namespace infoleak
