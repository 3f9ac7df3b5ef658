#pragma once

#include "core/leakage.h"
#include "util/result.h"

namespace infoleak {

/// \brief F-beta generalization of the record leakage (paper §2.2 quotes
/// the weighted harmonic mean F_β but the evaluation fixes β = 1).
///
/// With constant weights, F_β(r̄, p) = (β²+1)·I / (β²·W_p + W_r̄) where I is
/// the overlap weight — the same "1/(linear in indicators)" structure as
/// F1, so all three §5 algorithms carry over:
///  * naive: enumerate worlds, O(2^|r|·|r|);
///  * exact (Algorithm 1 variant): integrate Π(c·t + 1−c) against
///    t^(β²·|p|) — a *fractional* power, handled by the closed-form
///    integral Σ coeffs[x]/(β²|p| + |Y| − x); constant weights only;
///  * second-order Taylor approximation with base β²·W_p.
///
/// β > 1 weighs completeness (recall) more — "the adversary knowing most of
/// my data" — while β < 1 weighs correctness more — "the adversary's data
/// being right". β = 1 reproduces L(r, p) exactly.
class FBetaLeakage {
 public:
  /// The measure for `beta`; InvalidArgument unless it is positive and
  /// finite.
  static Result<FBetaLeakage> Create(double beta);

  double beta() const { return beta_; }

  /// E[F_β] by possible-world enumeration; arbitrary weights. Refuses
  /// records larger than `max_attributes`.
  Result<double> Naive(const Record& r, const Record& p,
                       const WeightModel& wm,
                       std::size_t max_attributes = 25) const;

  /// Exact E[F_β] via the Algorithm 1 integral; requires a constant weight
  /// over the labels of r and p.
  Result<double> Exact(const Record& r, const Record& p,
                       const WeightModel& wm) const;

  /// Second-order Taylor approximation; arbitrary weights.
  Result<double> Approximate(const Record& r, const Record& p,
                             const WeightModel& wm) const;

  /// Set leakage: max over the database's records, using Exact when the
  /// weights allow and Approximate otherwise.
  Result<double> SetLeakage(const Database& db, const Record& p,
                            const WeightModel& wm) const;

 private:
  explicit FBetaLeakage(double beta) : beta_(beta), beta2_(beta * beta) {}

  double beta_;
  double beta2_;
};

}  // namespace infoleak
