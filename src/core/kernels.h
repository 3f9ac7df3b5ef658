#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace infoleak::kern {

/// \brief The data-parallel evaluation kernels behind the leakage engines:
/// Algorithm 1's polynomial-coefficient recurrence, the §5.2 Taylor
/// approximation, the naive world enumeration, expected recall, and the
/// closed-form leakage bounds — each expressed over contiguous arrays (the
/// structure-of-arrays layout of `ColumnBank` / `LeakageWorkspace`) instead
/// of records.
///
/// Every kernel exists in a scalar reference form and, where the arithmetic
/// is element-wise independent, a wide (SIMD) form. The two forms are
/// bit-identical by construction: a wide variant may only vectorize
/// operations whose per-element IEEE-754 result does not depend on its
/// neighbours (the Bernoulli-multiply recurrence), while every reduction
/// (integration, moments, the sums over b ∈ p, the world enumeration) keeps
/// the scalar accumulation order. The kernels translation unit is compiled
/// with -ffp-contract=off so no variant can fuse a multiply-add the others
/// evaluate as two rounded operations.
///
/// Dispatch: `Active()` resolves once per process to the widest table the
/// CPU supports, unless forced back to the scalar reference — at compile
/// time with -DINFOLEAK_FORCE_SCALAR=ON, or at run time by setting the
/// INFOLEAK_FORCE_SCALAR environment variable to anything but "0"/"".
///
/// All pointers may be null when their length is 0; otherwise arrays must
/// not alias. `poly` must have room for `rn + 1` coefficients.
struct KernelTable {
  /// Variant name for dispatch metrics: "scalar", "avx2", or "avx512".
  std::string_view name;

  /// Algorithm 1 core:
  ///   factor · Σ_{j<pn, match_conf[j]≠0} match_conf[j] ·
  ///     ∫₀¹ t^m · Π_{i≠match_rpos[j]} (rconf[i]·t + 1 − rconf[i]) dt
  /// with the product maintained as a descending coefficient list in
  /// `poly` (capacity rn + 1). O(pn·rn²).
  double (*exact_sum)(const double* rconf, std::size_t rn,
                      const double* match_conf, const uint32_t* match_rpos,
                      std::size_t pn, double m, double factor, double* poly);

  /// §5.2 Taylor core: factor · Σ_j p(b,r) · (w_b/denom + order≥2 variance
  /// correction), denom = E[Y_b] + w_b + base. O(rn + pn).
  double (*approx_sum)(const double* rconf, const double* rweight,
                       std::size_t rn, const double* match_conf,
                       const uint32_t* match_rpos, const double* pweight,
                       std::size_t pn, double base, double factor, int order);

  /// Naive world enumeration over `rn` attributes (caller enforces the
  /// 2^rn cap): E[factor·overlap/(weight + base)]. O(2^rn · rn).
  double (*naive_sum)(const double* rconf, const double* rweight,
                      const uint8_t* matched, std::size_t rn, double base,
                      double factor);

  /// Expected-recall numerator: Σ_j match_conf[j] · pweight[j]. O(pn).
  double (*recall_sum)(const double* match_conf, const double* pweight,
                       std::size_t pn);

  /// Closed-form leakage bounds (see core/bounds.h): writes the Jensen
  /// lower bound and the min(1, 2·E[Re]) upper bound. `wp` is the total
  /// reference weight. O(rn + pn).
  void (*bounds)(const double* rconf, const double* rweight, std::size_t rn,
                 const double* match_conf, const double* pweight,
                 std::size_t pn, double wp, double* lower, double* upper);
};

/// One matched reference attribute b's share of the `bounds` kernel:
/// `mc` = p(b, r) ≠ 0, `wb` = w_b, `mean_all` = Σ_i rweight[i]·rconf[i]
/// accumulated in attribute order, `wp` the total reference weight. Adds
/// b's Jensen term to `*low` and its recall mass to `*mass`. Every bounds
/// path visits its matched b in ascending reference position through this,
/// then closes with `FinishBounds`, so they agree bit for bit.
inline void AddBoundTerm(double mc, double wb, double mean_all, double wp,
                         double* low, double* mass) {
  const double mean = mean_all - wb * mc;
  const double denom = mean + wb + wp;
  if (denom > 0.0) *low += 2.0 * mc * wb / denom;
  *mass += mc * wb;
}

/// Closes the bounds from the summed terms: lower = min(low, 1), upper =
/// min(1, 2·mass/wp), raised to lower (floating slack at the boundary).
inline void FinishBounds(double low, double mass, double wp, double* lower,
                         double* upper) {
  low = low < 1.0 ? low : 1.0;
  double up = 2.0 * mass / wp;
  if (up > 1.0) up = 1.0;
  if (up < low) up = low;
  *lower = low;
  *upper = up;
}

/// The portable reference implementation.
const KernelTable& Scalar();

/// The widest SIMD implementation this CPU supports (== Scalar() when the
/// build target has none). Ignores the force-scalar escape hatch.
const KernelTable& Wide();

/// The table evaluation should use: Wide(), unless scalar dispatch was
/// forced at compile time or through the environment. Resolved once.
const KernelTable& Active();

/// True when Active() was pinned to the scalar table by the escape hatch.
bool ForcedScalar();

}  // namespace infoleak::kern
