#pragma once

#include "core/leakage.h"
#include "ops/operator.h"
#include "util/result.h"

namespace infoleak {

/// \brief Incremental leakage of releasing record `r` (§4.1):
/// I(R, p, E, r) = L(R ∪ {r}, p, E) − L(R, p, E).
///
/// Because the adversary may piece `r` together with existing records via
/// `E`, the incremental leakage can be large even when `r` itself carries
/// little data — and it can be negative when `r` is disinformation.
Result<double> IncrementalLeakage(const Database& db, const Record& p,
                                  const AnalysisOperator& op, const Record& r,
                                  const WeightModel& wm,
                                  const LeakageEngine& engine);

/// \brief Breakdown of an incremental-leakage computation.
struct IncrementalReport {
  double before = 0.0;       ///< L(R, p, E)
  double after = 0.0;        ///< L(R ∪ {r}, p, E)
  double incremental = 0.0;  ///< after − before
};

/// The before/after pair behind IncrementalLeakage; `p` is prepared once
/// for both evaluations. A release ledger is a `Database` plus this call:
/// report the candidate, then `Add` it to commit the release.
Result<IncrementalReport> IncrementalLeakageReport(
    const Database& db, const Record& p, const AnalysisOperator& op,
    const Record& r, const WeightModel& wm, const LeakageEngine& engine);

}  // namespace infoleak
