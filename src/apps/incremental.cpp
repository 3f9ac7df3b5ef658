#include "apps/incremental.h"

#include "obs/metrics.h"

namespace infoleak {

Result<IncrementalReport> IncrementalLeakageReport(
    const Database& db, const Record& p, const AnalysisOperator& op,
    const Record& r, const WeightModel& wm, const LeakageEngine& engine) {
  static obs::Counter& reports = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_incremental_reports_total", {},
      "Before/after incremental-leakage reports computed");
  reports.Inc();
  const PreparedReference ref(p, wm);
  Result<double> before = InformationLeakage(db, ref, op, engine);
  if (!before.ok()) return before.status();
  Result<double> after = InformationLeakage(db.WithRecord(r), ref, op, engine);
  if (!after.ok()) return after.status();
  IncrementalReport report;
  report.before = *before;
  report.after = *after;
  report.incremental = *after - *before;
  return report;
}

Result<double> IncrementalLeakage(const Database& db, const Record& p,
                                  const AnalysisOperator& op, const Record& r,
                                  const WeightModel& wm,
                                  const LeakageEngine& engine) {
  Result<IncrementalReport> report =
      IncrementalLeakageReport(db, p, op, r, wm, engine);
  if (!report.ok()) return report.status();
  return report->incremental;
}

}  // namespace infoleak
