#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/case.h"
#include "core/leakage.h"
#include "core/monte_carlo.h"

namespace infoleak::check {

/// Which comparisons run and how tight they are. The defaults are the
/// `infoleak selfcheck` defaults; tests narrow them to isolate one engine.
struct OracleConfig {
  /// Truth comparisons use the naive possible-worlds oracle only for
  /// records at or below this size — it is O(2^|r|), and above ~12
  /// attributes its own accumulation error starts to crowd `exact_tol`.
  std::size_t naive_max = 12;
  /// Monte-Carlo samples per estimate.
  std::size_t mc_samples = 4000;
  /// Half-width of the Monte-Carlo acceptance interval, in standard
  /// errors. 8σ makes a false alarm over a 5000-case run astronomically
  /// unlikely while still catching any real estimator bias.
  double mc_sigmas = 8.0;
  /// Tolerance for exact-vs-naive agreement (two independent exact
  /// algorithms; the budget covers their accumulated rounding).
  double exact_tol = 1e-12;
  /// Absolute slack added to analytically-derived tolerances (Taylor
  /// bound, leakage bounds, Monte-Carlo CI) to absorb the comparison
  /// baseline's own rounding.
  double slack = 1e-9;

  bool check_naive = true;
  bool check_exact = true;
  bool check_approx = true;
  bool check_mc = true;
  bool check_bounds = true;
  /// Extends each cross-entry comparison to the set and batch scans over
  /// the bank (and, for auto, the Database SetLeakage convenience).
  bool check_batch = true;
  bool check_auto = true;
  // The measure family (core/measure_family.h): pointwise maximal,
  // guesswork, and the under/over probabilistic bounds as engines.
  bool check_pml = true;
  bool check_guesswork = true;
  bool check_overunder = true;
};

/// One confirmed disagreement: which property broke, the values involved,
/// and the (possibly shrunk) case that triggers it.
struct Finding {
  std::string kind;    ///< e.g. "approx-bound", "cross-entry"
  std::string detail;  ///< values, difference, and the violated tolerance
  CheckCase c;
};

struct OracleOutcome {
  std::size_t comparisons = 0;
  std::vector<Finding> findings;
};

/// \brief The offline differential oracle: evaluates one case through
/// every enabled engine and entry point and cross-checks the results.
///
/// Properties checked (each a `Finding::kind`):
///  * `range`              — every successful value lies in [0, 1]
///  * `cross-entry`        — per engine and measure, the `Record` entry
///                           point equals the bank view and (with
///                           check_batch) the set and batch scans over the
///                           bank, bit for bit — for leakage, precision,
///                           recall and the leakage bounds
///  * `error-contract`     — naive fails iff |r| exceeds its cap; exact
///                           fails iff the weights are non-uniform; the
///                           under/over measures refuse precision
///  * `exact-vs-naive`     — |exact − naive| ≤ exact_tol (uniform, small)
///  * `approx-bound`       — |approx_k − truth| ≤ ApproxLeakageErrorBound
///  * `approx-order`       — order-1 ≤ order-2 (the variance term is ≥ 0)
///  * `bounds`             — BoundRecordLeakage brackets the truth; the
///                           Taylor value stays in the bound-widened bracket
///  * `monte-carlo-ci`     — |MC mean − truth| ≤ mc_sigmas·SE + slack
///  * `monte-carlo-repro`  — same per-case seed, bit-identical estimate
///  * `auto-dispatch`      — AutoLeakage equals the engine its rule picks
///
/// "Truth" is the naive oracle when the record is enumerable (arbitrary
/// weights), else Algorithm 1 when the weights are uniform; large
/// non-uniform cases have no independent truth, so only the cross-entry and
/// bracket properties apply there.
///
/// The measure family (core/measure_family.h) gets its own property set,
/// run by `EvaluateMeasures` (called from Evaluate with the default
/// engines):
///  * `measure-truth`      — pml equals an independent brute-force world
///                           maximum (small records); guesswork equals an
///                           independent modal-world F1 recomputation
///  * `measure-order`      — truth ≤ pml and guesswork ≤ pml (+slack)
///  * `measure-bracket`    — under − slack ≤ truth ≤ over + slack
///  * `measure-vs-bounds`  — the under/over engines are bitwise equal to
///                           BoundRecordLeakage's lower/upper
///  * `measure-degenerate` — all-{0,1}-confidence cases have one possible
///                           world, whose directly-computed F1 every
///                           measure must reproduce (any record size)
///  * `measure-monotone`   — extending r with a fresh unmatched attribute
///                           leaves pml bit-identical (conf < 1 excluded,
///                           conf ≥ 0.5 can only grow the modal world):
///                           guesswork/under/over may only decrease
///
/// Thread-compatible: Evaluate is const and engines are stateless, but the
/// shared workspace means one Oracle per thread.
class Oracle {
 public:
  explicit Oracle(OracleConfig config = {});

  /// The measure engines one EvaluateMeasures pass cross-validates. Null
  /// entries resolve to the process-wide singletons; tests inject
  /// deliberately-perturbed engines here to prove each property would
  /// catch a wrong implementation.
  struct MeasureEngines {
    const LeakageEngine* pml = nullptr;
    const LeakageEngine* guesswork = nullptr;
    const LeakageEngine* under = nullptr;
    const LeakageEngine* over = nullptr;
  };

  /// Runs every enabled comparison on `c`. `case_seed` drives the
  /// Monte-Carlo sampling, so a (case, seed) pair always reproduces.
  OracleOutcome Evaluate(const CheckCase& c, uint64_t case_seed) const;

  /// The measure-family slice of Evaluate, appended into `*out`. Public so
  /// tests can swap in perturbed engines (the sensitivity proof each new
  /// measure owes the acceptance criteria).
  void EvaluateMeasures(const CheckCase& c, const MeasureEngines& engines,
                        OracleOutcome* out) const;

  const OracleConfig& config() const { return config_; }

 private:
  OracleConfig config_;
  NaiveLeakage naive_;  // cap 16 = AutoLeakage's dispatch range
  ExactLeakage exact_;
  ApproxLeakage approx1_;
  ApproxLeakage approx2_;
  AutoLeakage auto_;
  MonteCarloLeakage mc_;
};

}  // namespace infoleak::check
