#pragma once

#include "core/leakage.h"
#include "util/result.h"

namespace infoleak {

/// \brief Closed-form lower and upper bounds on the record leakage
/// L(r, p) = E[F1(r̄, p)], computable in O(|p|·log|r| + |r|) — useful to
/// bracket the exact value without enumerating worlds or to prune
/// optimizer candidates before paying for an exact evaluation.
///
/// Lower bound (Jensen): conditioned on a matched attribute b being
/// present, each term w_b/(Y + w_b + W_p) is convex in Y, so evaluating it
/// at E[Y] (the first-order Taylor approximation) under-estimates the
/// expectation. Summing preserves the inequality:
///   L ≥ 2 Σ_b p(b,r) · w_b / (E[Y_b] + w_b + W_p).
///
/// Upper bound: pointwise F1 ≤ 2·Pr and F1 ≤ 2·Re, hence
///   L ≤ min(2·E[Pr], 2·E[Re], 1).
/// E[Re] is exact in closed form for arbitrary weights; for E[Pr] we use
/// the same Jensen direction — w_b/(Y + w_b) evaluated at E[Y] lower-bounds
/// E[Pr], so it cannot serve as an upper bound; instead we use the crisp
/// bound E[Pr] ≤ 1 and rely on the recall term, which in leakage-style
/// workloads (incomplete adversaries) is the binding side.
struct LeakageBounds {
  double lower = 0.0;
  double upper = 1.0;
};

/// \brief Computes the bounds; arbitrary weights. Guaranteed
/// lower ≤ L(r, p) ≤ upper (property-tested against the oracles).
LeakageBounds BoundRecordLeakage(const Record& r, const Record& p,
                                 const WeightModel& wm);

/// \brief As BoundRecordLeakage, for record `index` of a column bank —
/// bit-identical to the string form (pinned by the selfcheck oracle) but
/// streaming the bank's columns through the bounds kernel with no hashing.
LeakageBounds BoundRecordLeakageColumnar(const ColumnBank& bank,
                                         std::size_t index,
                                         LeakageWorkspace* ws);

/// \brief The view-based core the bank overload delegates to, usable with
/// any `ColumnRecordView` prepared against `p`.
LeakageBounds BoundRecordLeakageView(const ColumnRecordView& v,
                                     const PreparedReference& p,
                                     LeakageWorkspace* ws);

/// \brief Sound, computable bound B on the truncation error of the §5.2
/// Taylor approximation: |ApproxLeakage(order) − L(r, p)| ≤ B. This is what
/// makes "approx within its bound" a checkable oracle property rather than
/// an empirical observation (Table 5).
///
/// Derivation. The exact per-term value is E[f(Y_b)] with
/// f(y) = w_b/(y + c_b), c_b = w_b + W(p), and Y_b ∈ [0, Ymax_b] the
/// believed weight of r̄ minus the matched attribute. f is convex on the
/// support, so
///   f(E[Y_b])  ≤  E[f(Y_b)]  ≤  chord(E[Y_b]),
/// where the left side is Jensen (= the order-1 Taylor term the engine
/// computes) and the right side is the secant of f over [0, Ymax_b]
/// evaluated at the mean (f ≤ secant pointwise on the support, and the
/// secant is affine so its expectation is its value at the mean). The
/// order-2 engine adds corr_b = w_b·Var[Y_b]/(E[Y_b]+c_b)³ ≥ 0, so its
/// per-term error lies in [−corr_b, (chord_b − jensen_b) − corr_b]. Summing
/// 2·p(b,r)·max(corr_b, chord_b − jensen_b − corr_b) over matched b gives
/// B. The engine clamps its output into [0, 1]; since the true L is in
/// [0, 1], clamping is a contraction and the bound survives it.
///
/// Returns +infinity when the inputs overflow double arithmetic (the bound
/// is then trivially true, and the engines refuse such inputs anyway).
double ApproxLeakageErrorBound(const Record& r, const Record& p,
                               const WeightModel& wm, int order = 2);

}  // namespace infoleak
