#include "apps/population.h"

namespace infoleak {

Result<std::vector<MemberLeakage>> PerPersonLeakage(
    const Database& db, const std::vector<Record>& references,
    const AnalysisOperator& op, const WeightModel& wm,
    const LeakageEngine& engine) {
  Result<Database> analyzed = op.Apply(db);
  if (!analyzed.ok()) return analyzed.status();
  std::vector<MemberLeakage> out;
  out.reserve(references.size());
  for (std::size_t person = 0; person < references.size(); ++person) {
    MemberLeakage entry;
    entry.person = person;
    Result<double> l =
        SetLeakage(*analyzed, references[person], wm, engine, &entry.argmax);
    if (!l.ok()) return l.status();
    entry.leakage = *l;
    out.push_back(entry);
  }
  return out;
}

Result<ReidentificationReport> ReidentifyRecords(
    const Database& db, const std::vector<Record>& references,
    const WeightModel& wm, const LeakageEngine& engine,
    const std::vector<std::size_t>* ground_truth) {
  if (ground_truth != nullptr && ground_truth->size() != db.size()) {
    return Status::InvalidArgument(
        "ground truth size does not match database size");
  }
  // Every reference is scored against every record: prepare each reference
  // once up front instead of once per (record, person) pair.
  std::vector<PreparedReference> refs;
  refs.reserve(references.size());
  for (const Record& p : references) refs.emplace_back(p, wm);
  LeakageWorkspace ws;
  PreparedRecord scratch;
  ReidentificationReport report;
  report.results.reserve(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    Reidentification reid;
    reid.record_index = i;
    for (std::size_t person = 0; person < references.size(); ++person) {
      scratch.Assign(db[i], refs[person]);
      const Result<double> l =
          engine.RecordLeakageColumnar(scratch.view(), refs[person], &ws);
      if (!l.ok()) return l.status();
      if (*l > reid.score) {
        reid.runner_up = reid.score;
        reid.score = *l;
        reid.predicted_person = static_cast<std::ptrdiff_t>(person);
      } else if (*l > reid.runner_up) {
        reid.runner_up = *l;
      }
    }
    if (reid.predicted_person >= 0) {
      ++report.attributed;
      if (ground_truth != nullptr &&
          static_cast<std::size_t>(reid.predicted_person) ==
              (*ground_truth)[i]) {
        ++report.correct;
      }
    }
    report.results.push_back(reid);
  }
  report.accuracy =
      report.attributed > 0
          ? static_cast<double>(report.correct) /
                static_cast<double>(report.attributed)
          : 0.0;
  return report;
}

}  // namespace infoleak
