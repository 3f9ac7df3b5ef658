#include "ops/operator.h"

namespace infoleak {

// ---------------------------------------------------------------------------
// ErOperator
// ---------------------------------------------------------------------------

ErOperator::ErOperator(const EntityResolver& resolver,
                       std::unique_ptr<CostModel> cost_model)
    : resolver_(resolver), cost_model_(std::move(cost_model)) {
  if (cost_model_ == nullptr) {
    // The paper's running example: C(E, R) = |R|² / 1000.
    cost_model_ = std::make_unique<PolynomialCostModel>(1.0 / 1000.0, 2.0);
  }
}

Result<Database> ErOperator::Apply(const Database& db) const {
  return resolver_.Resolve(db, &stats_);
}

double ErOperator::Cost(const Database& db) const {
  return cost_model_->Cost(db);
}

// ---------------------------------------------------------------------------
// SemanticNormalizeOperator
// ---------------------------------------------------------------------------

SemanticNormalizeOperator::SemanticNormalizeOperator(
    ValueNormalizer normalizer, std::unique_ptr<CostModel> cost_model)
    : normalizer_(std::move(normalizer)), cost_model_(std::move(cost_model)) {
  if (cost_model_ == nullptr) {
    cost_model_ = std::make_unique<PerAttributeCostModel>(0.0);
  }
}

Result<Database> SemanticNormalizeOperator::Apply(const Database& db) const {
  Database out;
  for (const auto& r : db) out.Add(normalizer_.Normalize(r));
  return out;
}

double SemanticNormalizeOperator::Cost(const Database& db) const {
  return cost_model_->Cost(db);
}

// ---------------------------------------------------------------------------
// PipelineOperator
// ---------------------------------------------------------------------------

PipelineOperator::PipelineOperator(std::vector<const AnalysisOperator*> stages,
                                   std::string name)
    : stages_(std::move(stages)), name_(std::move(name)) {}

Result<Database> PipelineOperator::Apply(const Database& db) const {
  Database current = db;
  for (const auto* stage : stages_) {
    Result<Database> next = stage->Apply(current);
    if (!next.ok()) return next.status();
    current = std::move(next).value();
  }
  return current;
}

double PipelineOperator::Cost(const Database& db) const {
  // Price each stage on the database it actually receives; if a stage
  // fails, its cost estimate on the last good database is still summed.
  double total = 0.0;
  Database current = db;
  for (const auto* stage : stages_) {
    total += stage->Cost(current);
    Result<Database> next = stage->Apply(current);
    if (!next.ok()) break;
    current = std::move(next).value();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Definition 2.2
// ---------------------------------------------------------------------------

Result<double> InformationLeakage(const Database& db, const Record& p,
                                  const AnalysisOperator& op,
                                  const WeightModel& wm,
                                  const LeakageEngine& engine) {
  const PreparedReference ref(p, wm);
  return InformationLeakage(db, ref, op, engine);
}

Result<double> InformationLeakage(const Database& db,
                                  const PreparedReference& p,
                                  const AnalysisOperator& op,
                                  const LeakageEngine& engine) {
  Result<Database> analyzed = op.Apply(db);
  if (!analyzed.ok()) return analyzed.status();
  return SetLeakageColumnar(ColumnBank::FromDatabase(*analyzed, p), engine);
}

Result<LeakageReport> AnalyzeLeakage(const Database& db, const Record& p,
                                     const AnalysisOperator& op,
                                     const WeightModel& wm,
                                     const LeakageEngine& engine) {
  Result<Database> analyzed = op.Apply(db);
  if (!analyzed.ok()) return analyzed.status();
  Result<double> leakage = SetLeakage(*analyzed, p, wm, engine);
  if (!leakage.ok()) return leakage.status();
  LeakageReport report;
  report.leakage = *leakage;
  report.cost = op.Cost(db);
  report.analyzed = std::move(analyzed).value();
  return report;
}

}  // namespace infoleak
