#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/measure_family.h"
#include "gen/population.h"
#include "util/result.h"

namespace infoleak::obs {
class RequestContext;
}

namespace infoleak {

/// The privacy-mechanism evaluation service: sweep (k, l, t, suppression)
/// grids over a generated registry, apply each mechanism through the
/// src/anon lattice search, run the generalization-aware ER pipeline as
/// the adversary, and price every grid point with a leakage measure next
/// to the standard utility metrics — the paper's §3 model-comparison story
/// ("what does the adversary still learn after k-anonymity?") served as a
/// first-class workload. See docs/frontier.md.

/// \brief One swept mechanism grid. Every combination of the four axes is
/// one frontier point; l = 1 and t = 1.0 are the trivial (always
/// satisfied) settings, so a pure k-anonymity sweep is ks × {1} × {1.0} ×
/// {0}.
struct FrontierGrid {
  std::vector<std::size_t> ks{2, 5};
  std::vector<std::size_t> ls{1};
  std::vector<double> ts{1.0};
  std::vector<std::size_t> suppressions{0};
};

struct FrontierConfig {
  /// Registry generation (seed, rows, clustering) — every frontier point
  /// is a pure function of (registry, grid-coords).
  RegistryConfig registry;
  /// Leakage measure pricing each point. The default expected-f1 measure
  /// evaluates through the exact engine; the others through their
  /// measure-family singleton.
  Measure measure = Measure::kExpectedF1;
  FrontierGrid grid;
  /// Worker threads fanning grid points out (0 = hardware concurrency,
  /// 1 = serial). Results are identical regardless — the pool changes
  /// wall-clock, never bytes.
  std::size_t num_threads = 1;
  /// Polled between evaluations; a true return aborts the sweep with
  /// DeadlineExceeded (the served path's deadline plumbing).
  std::function<bool()> cancel;
  /// When true, each finished grid point is recorded into the global
  /// obs::EventLog as a "frontier" request with anonymize/resolve/eval
  /// phase attribution (the serving plane does this regardless through its
  /// own context).
  bool log_points = false;
};

/// \brief One evaluated mechanism point: the grid coordinates, whether any
/// lattice node satisfies the mechanism, the chosen node, and the
/// utility/leakage readings. All values are deterministic functions of
/// (seed, grid-coords); wall-clock lives only in the phase_nanos
/// accounting, which the NDJSON rendering deliberately omits.
struct FrontierPoint {
  std::size_t k = 1;
  std::size_t l = 1;
  double t = 1.0;
  std::size_t max_suppressed = 0;

  bool found = false;          ///< some lattice node satisfies the mechanism
  std::vector<int> levels;     ///< chosen node (empty when !found)
  int height = -1;             ///< sum of levels (-1 when !found)
  std::size_t suppressed = 0;  ///< rows the mechanism dropped

  double prec = -1.0;            ///< Sweeney's Prec (1 = untouched)
  double discernibility = -1.0;  ///< Σ |class|²
  double avg_class = -1.0;       ///< C_AVG: (rows/classes)/k

  double worst_leakage = -1.0;   ///< max over people of the per-person max
  double mean_leakage = -1.0;    ///< mean over people
  std::ptrdiff_t worst_person = -1;

  /// Phase accounting (anonymize = lattice search, resolve = adversary ER,
  /// eval = leakage measurement). Wall-clock — excluded from NDJSON.
  uint64_t anonymize_nanos = 0;
  uint64_t resolve_nanos = 0;
  uint64_t eval_nanos = 0;
};

struct FrontierResult {
  std::vector<FrontierPoint> points;  ///< grid order: k ⊃ l ⊃ t ⊃ suppression
  std::size_t rows = 0;               ///< registry rows swept
};

/// \brief Runs the sweep. Grid points fan across `num_threads` workers;
/// each point anonymizes the generated registry (lattice walk by ascending
/// height accepting the first node that is k-anonymous within the
/// suppression budget, distinct-l-diverse, and t-close), resolves the
/// published table with GeneralizedRuleMatch + GeneralizationMerge through
/// the per-quasi-identifier-class resolver (GeneralizedClassResolver),
/// aligns each resolved entity to every person, and measures per-person
/// leakage with one serial SetLeakageColumnar scan per alignment class
/// (persons whose GeneralizedAligner::ClassKey agree fill byte-identical
/// banks); the worst person is the first attaining the maximum
/// (RunningMax). InvalidArgument on an empty grid or empty registry.
Result<FrontierResult> RunFrontier(const FrontierConfig& config);

/// \brief Renders one point as a single NDJSON line (no trailing newline).
/// Only deterministic fields appear, so byte-identical output from equal
/// (seed, grid) inputs is a testable contract.
std::string FrontierPointLine(const FrontierPoint& point,
                              const FrontierConfig& config);

}  // namespace infoleak
