#include "core/measure_family.h"

#include <string>
#include <utility>

#include "obs/metrics.h"

namespace infoleak {
namespace {

// Same metric family as the classic engines (core/leakage.cpp): every
// measure evaluation counts under its engine label, which is what gives
// the serving layer per-measure metric visibility for free.
obs::Counter& MeasureEvalCounter(std::string_view engine) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_leakage_evaluations_total",
      {{"engine", std::string(engine)}},
      "Record-leakage evaluations per engine (the hot-loop unit of work)");
}

// ---------------------------------------------------------------------------
// Shared array cores. Each walks the record's confidence/weight/matched
// columns once; (base, factor) parameterizes F1 (base = W(p), factor = 2)
// vs precision (base = 0, factor = 1), the same trick the naive kernel
// uses. Non-contributing attributes are skipped by branch — adding an
// unmatched attribute with confidence < 1 performs zero additional
// floating-point operations, so the result is bit-invariant under such an
// extension (the measure-monotone oracle property).
// ---------------------------------------------------------------------------

/// Pointwise maximal leakage core. F1 = factor·overlap/(total_r̄ + base) is
/// non-decreasing in adding a matched attribute of weight w ≥ 0 (the
/// derivative of factor·(I+t)/(D+t) in t is factor·(D−I)/(D+t)² ≥ 0 since
/// the denominator always carries at least the numerator's mass), so the
/// maximizing positive-probability world includes every matched attribute
/// with confidence > 0, must include every mandatory (confidence == 1)
/// attribute, and excludes every other unmatched one.
double PmlTotal(const double* conf, const double* weight,
                const uint8_t* matched, std::size_t n, double base,
                double factor) {
  double included = 0.0;   // matched, includable: confidence > 0
  double mandatory = 0.0;  // unmatched but present in every world: conf == 1
  for (std::size_t i = 0; i < n; ++i) {
    if (matched[i]) {
      if (conf[i] > 0.0) included += weight[i];
    } else if (conf[i] == 1.0) {
      mandatory += weight[i];
    }
  }
  const double denom = included + mandatory + base;
  return denom > 0.0 ? factor * included / denom : 0.0;
}

/// Guesswork core: the modal world includes an attribute iff its
/// confidence ≥ 0.5 (ties include — the documented convention).
double GuessworkTotal(const double* conf, const double* weight,
                      const uint8_t* matched, std::size_t n, double base,
                      double factor) {
  double modal = 0.0;    // weight of the modal world
  double overlap = 0.0;  // its matched share
  for (std::size_t i = 0; i < n; ++i) {
    if (conf[i] >= 0.5) {
      modal += weight[i];
      if (matched[i]) overlap += weight[i];
    }
  }
  const double denom = modal + base;
  return denom > 0.0 ? factor * overlap / denom : 0.0;
}

Status NoPrecision(std::string_view engine) {
  return Status::NotSupported(
      "engine '" + std::string(engine) +
      "' bounds expected F1 only; it has no precision analogue");
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::string_view MeasureName(Measure m) {
  return kMeasureNames[static_cast<int>(m)];
}

Result<Measure> ParseMeasure(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kMeasureNames); ++i) {
    if (name == kMeasureNames[i]) return static_cast<Measure>(i);
  }
  return Status::InvalidArgument(
      "unknown measure '" + std::string(name) +
      "' (expected-f1|pml|guesswork|under|over)");
}

const LeakageEngine* MeasureEngineSingleton(Measure m) {
  static const PmlLeakage pml;
  static const GuessworkLeakage guesswork;
  static const UnderLeakage under;
  static const OverLeakage over;
  switch (m) {
    case Measure::kPml:
      return &pml;
    case Measure::kGuesswork:
      return &guesswork;
    case Measure::kUnder:
      return &under;
    case Measure::kOver:
      return &over;
    case Measure::kExpectedF1:
      break;
  }
  return nullptr;
}

Result<const LeakageEngine*> LookupEngine(
    Measure measure, std::optional<std::string_view> engine) {
  if (measure != Measure::kExpectedF1) {
    if (engine.has_value()) {
      return Status::InvalidArgument(
          "engine '" + std::string(*engine) +
          "' only applies to the default expected-f1 measure; measure '" +
          std::string(MeasureName(measure)) + "' has exactly one engine");
    }
    return MeasureEngineSingleton(measure);
  }
  static const AutoLeakage auto_engine;
  static const NaiveLeakage naive;
  static const ExactLeakage exact;
  static const ApproxLeakage approx;
  static const std::pair<std::string_view, const LeakageEngine*> kEngines[] =
      {{"auto", &auto_engine},
       {"naive", &naive},
       {"exact", &exact},
       {"approx", &approx}};
  const std::string_view name = engine.value_or("auto");
  for (const auto& [known, found] : kEngines) {
    if (name == known) return found;
  }
  return Status::InvalidArgument("unknown engine '" + std::string(name) +
                                 "' (auto|naive|exact|approx)");
}

// ---------------------------------------------------------------------------
// PmlLeakage
// ---------------------------------------------------------------------------

Result<double> PmlLeakage::RecordLeakageColumnar(const ColumnRecordView& r,
                                                 const PreparedReference& p,
                                                 LeakageWorkspace* ws) const {
  static obs::Counter& evals = MeasureEvalCounter("pml");
  evals.Inc();
  FillMatchedFlags(r, ws);
  return FinishUnitInterval(
      PmlTotal(r.conf, r.weight, ws->matched.data(), r.size,
               /*base=*/p.total_weight(), /*factor=*/2.0),
      "pointwise maximal leakage");
}

Result<double> PmlLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& /*p*/,
    LeakageWorkspace* ws) const {
  FillMatchedFlags(r, ws);
  return FinishUnitInterval(
      PmlTotal(r.conf, r.weight, ws->matched.data(), r.size, /*base=*/0.0,
               /*factor=*/1.0),
      "pointwise maximal precision");
}

// ---------------------------------------------------------------------------
// GuessworkLeakage
// ---------------------------------------------------------------------------

Result<double> GuessworkLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = MeasureEvalCounter("guesswork");
  evals.Inc();
  FillMatchedFlags(r, ws);
  return FinishUnitInterval(
      GuessworkTotal(r.conf, r.weight, ws->matched.data(), r.size,
                     /*base=*/p.total_weight(), /*factor=*/2.0),
      "guesswork leakage");
}

Result<double> GuessworkLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& /*p*/,
    LeakageWorkspace* ws) const {
  FillMatchedFlags(r, ws);
  return FinishUnitInterval(
      GuessworkTotal(r.conf, r.weight, ws->matched.data(), r.size,
                     /*base=*/0.0, /*factor=*/1.0),
      "guesswork precision");
}

// ---------------------------------------------------------------------------
// UnderLeakage / OverLeakage — the probabilistic bounds as engines
// ---------------------------------------------------------------------------

Result<double> UnderLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = MeasureEvalCounter("under");
  evals.Inc();
  return FinishUnitInterval(BoundRecordLeakageView(r, p, ws).lower,
                            "under-estimate leakage bound");
}

Result<double> UnderLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& /*r*/, const PreparedReference& /*p*/,
    LeakageWorkspace* /*ws*/) const {
  return NoPrecision(name());
}

Result<double> OverLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = MeasureEvalCounter("over");
  evals.Inc();
  return FinishUnitInterval(BoundRecordLeakageView(r, p, ws).upper,
                            "over-estimate leakage bound");
}

Result<double> OverLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& /*r*/, const PreparedReference& /*p*/,
    LeakageWorkspace* /*ws*/) const {
  return NoPrecision(name());
}

}  // namespace infoleak
