#include "core/leakage.h"

#include <algorithm>
#include <cmath>

#include "core/kernels.h"
#include "core/possible_worlds.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace infoleak {
namespace {

// ---------------------------------------------------------------------------
// Instrumentation handles (resolved once; Inc is a sharded relaxed add)
// ---------------------------------------------------------------------------

obs::Counter& EngineEvalCounter(std::string_view engine) {
  return obs::MetricsRegistry::Global().GetCounter(
      "infoleak_leakage_evaluations_total",
      {{"engine", std::string(engine)}},
      "Record-leakage evaluations per engine (the hot-loop unit of work)");
}

/// The kernel table evaluations dispatch to, with the dispatch counted per
/// invocation under the variant that won (the variant is fixed per process,
/// so the label resolves once and Inc is a sharded relaxed add).
const kern::KernelTable& ActiveKernels() {
  static obs::Counter& dispatches = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_kernel_dispatch_total",
      {{"variant", std::string(kern::Active().name)}},
      "Array-kernel invocations by dispatched variant (scalar / avx2 / "
      "avx512; forced scalar via INFOLEAK_FORCE_SCALAR)");
  dispatches.Inc();
  return kern::Active();
}

obs::Counter& NaiveCapCounter() {
  static obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_naive_cap_rejections_total", {},
      "Naive-engine evaluations refused because the record exceeded the "
      "2^|r| enumeration cap");
  return rejected;
}

obs::Histogram& SetLeakageLatency() {
  static obs::Histogram& columnar =
      obs::MetricsRegistry::Global().GetHistogram(
          "infoleak_set_leakage_seconds", {{"mode", "columnar"}},
          "Wall time of one SetLeakageColumnar scan");
  return columnar;
}

/// Enumerates all 2^|r| worlds (the paper's O(2^|r|·|r|) naive algorithm)
/// and returns E[factor·overlap/(total_r + base)], covering both F1
/// (base = W(p), factor = 2) and precision (base = 0, factor = 1). The view
/// already holds the confidence and weight columns; `matched` falls out of
/// the match positions without a hash lookup.
Result<double> NaiveEnumerate(const ColumnRecordView& r, double base,
                              double factor, std::size_t max_attributes,
                              LeakageWorkspace* ws) {
  if (max_attributes > kMaxEnumerableAttributes) {
    max_attributes = kMaxEnumerableAttributes;
  }
  if (r.size > max_attributes) {
    NaiveCapCounter().Inc();
    return Status::ResourceExhausted(
        "record has " + std::to_string(r.size) +
        " attributes; naive enumeration capped at " +
        std::to_string(max_attributes));
  }
  FillMatchedFlags(r, ws);
  return ActiveKernels().naive_sum(r.conf, r.weight, ws->matched.data(),
                                   r.size, base, factor);
}

/// Algorithm 1's core:
///   factor · Σ_{b∈p} p(b,r) · ∫₀¹ t^m · Π_{a∈z}(c_a·t + 1−c_a) dt
/// where z = r without the attribute matching b. With m = |p| and
/// factor = 2 this is L(r, p); with m = 0 and factor = 1 it is E[Pr]. The
/// match columns scatter straight from the view's positions, and the
/// confidence column feeds the kernel without a gather.
double ExactSum(const ColumnRecordView& r, const PreparedReference& p,
                double m, double factor, LeakageWorkspace* ws) {
  FillMatchColumns(r, p.size(), ws);
  ws->poly.resize(r.size + 1);
  return ActiveKernels().exact_sum(r.conf, r.size, ws->match_conf.data(),
                                   ws->match_rpos.data(), p.size(), m, factor,
                                   ws->poly.data());
}

/// The §5.2 Taylor approximation's core:
///   factor · Σ_{b∈p} p(b,r) · E[w_b / (Y + w_b + base)]
/// where Y = Σ_{a∈r̄\{b}} w_a and base = Σ_{a∈p} w_a for leakage
/// (factor 2) or 0 for precision (factor 1). The kernel precomputes the
/// record moments once and derives each per-b value by removing the matched
/// attribute's contribution, giving O(|p| + |r|).
double ApproxSum(const ColumnRecordView& r, const PreparedReference& p,
                 double base, double factor, int order, LeakageWorkspace* ws) {
  FillMatchColumns(r, p.size(), ws);
  return ActiveKernels().approx_sum(r.conf, r.weight, r.size,
                                    ws->match_conf.data(),
                                    ws->match_rpos.data(),
                                    p.attr_weights().data(), p.size(), base,
                                    factor, order);
}

/// Algorithm 1 cancels the constant weight out of every F1 numerator and
/// denominator — valid only when that weight is positive. A uniform weight
/// of exactly 0 still passes `UniformWeightOver`, but then every possible
/// world's weighted F1 is 0/0, which the per-world convention (and
/// NaiveLeakage) evaluates as 0: no weighted content, no leakage. Cancelling
/// the 0 instead would silently compute the *unweighted* F1 (the
/// differential selfcheck caught exactly that: naive 0 vs exact 0.297).
bool UniformWeightIsZero(const ColumnRecordView& r,
                         const PreparedReference& p) {
  if (r.size > 0) return r.common_weight == 0.0;
  if (p.size() > 0) return p.common_weight() == 0.0;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// LeakageEngine: the engine-independent recall and the Record adapters
// ---------------------------------------------------------------------------

Result<double> LeakageEngine::FinishUnitInterval(double total,
                                                 const char* what) {
  // Every engine output is the expectation of a statistic in [0, 1], so a
  // finite total may only leave that interval by floating-point rounding
  // (exact/naive, off by an ulp) or by Taylor truncation error (approx,
  // which can overshoot badly when Var[Y] dwarfs the denominator — see the
  // selfcheck corpus). Clamp back into range; a non-finite total means the
  // weights overflowed double range and there is no meaningful value to
  // clamp, so refuse instead of propagating NaN/Inf to callers.
  if (!std::isfinite(total)) {
    return Status::InvalidArgument(
        std::string(what) +
        " is not finite; the weight model is too extreme for double "
        "arithmetic");
  }
  return std::clamp(total, 0.0, 1.0);
}

Result<double> LeakageEngine::ExpectedRecallColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  const double denom = p.total_weight();
  if (denom <= 0.0) return 0.0;
  FillMatchColumns(r, p.size(), ws);
  const double num = ActiveKernels().recall_sum(
      ws->match_conf.data(), p.attr_weights().data(), p.size());
  return FinishUnitInterval(num / denom, "expected recall");
}

Result<double> LeakageEngine::RecordLeakage(const Record& r, const Record& p,
                                            const WeightModel& wm) const {
  const PreparedReference ref(p, wm);
  const PreparedRecord pr(r, ref);
  LeakageWorkspace ws;
  return RecordLeakageColumnar(pr.view(), ref, &ws);
}

Result<double> LeakageEngine::ExpectedPrecision(const Record& r,
                                                const Record& p,
                                                const WeightModel& wm) const {
  const PreparedReference ref(p, wm);
  const PreparedRecord pr(r, ref);
  LeakageWorkspace ws;
  return ExpectedPrecisionColumnar(pr.view(), ref, &ws);
}

Result<double> LeakageEngine::ExpectedRecall(const Record& r, const Record& p,
                                             const WeightModel& wm) const {
  const PreparedReference ref(p, wm);
  const PreparedRecord pr(r, ref);
  LeakageWorkspace ws;
  return ExpectedRecallColumnar(pr.view(), ref, &ws);
}

// ---------------------------------------------------------------------------
// NaiveLeakage
// ---------------------------------------------------------------------------

Result<double> NaiveLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("naive");
  evals.Inc();
  Result<double> total = NaiveEnumerate(r, /*base=*/p.total_weight(),
                                        /*factor=*/2.0, max_attributes_, ws);
  if (!total.ok()) return total.status();
  return FinishUnitInterval(*total, "naive record leakage");
}

Result<double> NaiveLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& /*p*/,
    LeakageWorkspace* ws) const {
  Result<double> total = NaiveEnumerate(r, /*base=*/0.0, /*factor=*/1.0,
                                        max_attributes_, ws);
  if (!total.ok()) return total.status();
  return FinishUnitInterval(*total, "naive expected precision");
}

// ---------------------------------------------------------------------------
// ExactLeakage (Algorithm 1)
// ---------------------------------------------------------------------------

Result<double> ExactLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("exact");
  evals.Inc();
  if (!UniformWeightOver(r, p)) {
    return Status::InvalidArgument(
        "Algorithm 1 requires a constant weight across the labels of r and "
        "p; use ApproxLeakage or NaiveLeakage for arbitrary weights");
  }
  if (UniformWeightIsZero(r, p)) return 0.0;
  return FinishUnitInterval(
      ExactSum(r, p, /*m=*/static_cast<double>(p.size()), /*factor=*/2.0, ws),
      "exact record leakage");
}

Result<double> ExactLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  if (!UniformWeightOver(r, p)) {
    return Status::InvalidArgument(
        "exact expected precision requires constant weights");
  }
  if (UniformWeightIsZero(r, p)) return 0.0;
  return FinishUnitInterval(ExactSum(r, p, /*m=*/0, /*factor=*/1.0, ws),
                            "exact expected precision");
}

// ---------------------------------------------------------------------------
// ApproxLeakage (§5.2)
// ---------------------------------------------------------------------------

Result<ApproxLeakage> ApproxLeakage::Create(int order) {
  if (order != 1 && order != 2) {
    return Status::InvalidArgument(
        "ApproxLeakage supports Taylor orders 1 and 2, got " +
        std::to_string(order));
  }
  return ApproxLeakage(order);
}

ApproxLeakage::ApproxLeakage(int order) : order_(order < 2 ? 1 : 2) {
  if (order != 1 && order != 2) {
    static obs::Counter& clamped = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_approx_order_clamped_total", {},
        "ApproxLeakage constructions whose Taylor order was clamped to a "
        "supported one");
    clamped.Inc();
  }
}

Result<double> ApproxLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  static obs::Counter& evals = EngineEvalCounter("approx");
  evals.Inc();
  return FinishUnitInterval(ApproxSum(r, p, /*base=*/p.total_weight(),
                                      /*factor=*/2.0, order_, ws),
                            "approximate record leakage");
}

Result<double> ApproxLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return FinishUnitInterval(ApproxSum(r, p, /*base=*/0.0, /*factor=*/1.0,
                                      order_, ws),
                            "approximate expected precision");
}

// ---------------------------------------------------------------------------
// AutoLeakage
// ---------------------------------------------------------------------------

const LeakageEngine& AutoLeakage::Pick(const ColumnRecordView& r,
                                       const PreparedReference& p) const {
  static constexpr char kPickHelp[] =
      "Engine choices made by AutoLeakage's dispatch rule";
  if (UniformWeightOver(r, p)) {
    static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_auto_engine_selected_total", {{"engine", "exact"}},
        kPickHelp);
    picked.Inc();
    return exact_;
  }
  if (r.size <= naive_cutoff_) {
    static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
        "infoleak_auto_engine_selected_total", {{"engine", "naive"}},
        kPickHelp);
    picked.Inc();
    return naive_;
  }
  static obs::Counter& picked = obs::MetricsRegistry::Global().GetCounter(
      "infoleak_auto_engine_selected_total", {{"engine", "approx"}},
      kPickHelp);
  picked.Inc();
  return approx_;
}

Result<double> AutoLeakage::RecordLeakageColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return Pick(r, p).RecordLeakageColumnar(r, p, ws);
}

Result<double> AutoLeakage::ExpectedPrecisionColumnar(
    const ColumnRecordView& r, const PreparedReference& p,
    LeakageWorkspace* ws) const {
  return Pick(r, p).ExpectedPrecisionColumnar(r, p, ws);
}

// ---------------------------------------------------------------------------
// Set leakage over a database
// ---------------------------------------------------------------------------

Result<double> SetLeakage(const Database& db, const Record& p,
                          const WeightModel& wm, const LeakageEngine& engine,
                          std::ptrdiff_t* argmax) {
  const PreparedReference ref(p, wm);
  const ColumnBank bank = ColumnBank::FromDatabase(db, ref);
  return SetLeakageColumnar(bank, engine, argmax);
}

// ---------------------------------------------------------------------------
// Set and batch scans over a column bank
// ---------------------------------------------------------------------------

Result<double> SetLeakageColumnar(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::ptrdiff_t* argmax) {
  WallTimer timer;
  const PreparedReference& p = bank.reference();
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), p.size());
  RunningMax best;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    Result<double> l = engine.RecordLeakageColumnar(bank.view(i), p, &ws);
    if (!l.ok()) return l.status();
    best.Offer(*l, static_cast<std::ptrdiff_t>(i));
  }
  SetLeakageLatency().Observe(timer.ElapsedSeconds());
  if (argmax != nullptr) *argmax = best.index();
  return best.value();
}

Result<std::vector<double>> BatchLeakageColumnar(const ColumnBank& bank,
                                                 const LeakageEngine& engine) {
  const PreparedReference& p = bank.reference();
  std::vector<double> out;
  out.reserve(bank.size());
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), p.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    Result<double> l = engine.RecordLeakageColumnar(bank.view(i), p, &ws);
    if (!l.ok()) return l.status();
    out.push_back(*l);
  }
  return out;
}

Result<double> BankRecordLeakage(const ColumnBank& bank, std::size_t index,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws) {
  if (index >= bank.size()) {
    return Status::OutOfRange("bank record " + std::to_string(index) +
                              " out of range (bank holds " +
                              std::to_string(bank.size()) + ")");
  }
  const PreparedReference& p = bank.reference();
  LeakageWorkspace scratch;
  LeakageWorkspace* w = ws != nullptr ? ws : &scratch;
  w->ReserveFor(bank.max_record_size(), p.size());
  return engine.RecordLeakageColumnar(bank.view(index), p, w);
}

std::unique_ptr<LeakageEngine> MakeDefaultEngine() {
  return std::make_unique<AutoLeakage>();
}

}  // namespace infoleak
