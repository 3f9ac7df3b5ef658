#include "core/leakage.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/kernels.h"
#include "core/possible_worlds.h"
#include "obs/metrics.h"
#include "obs/request.h"
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

namespace {

/// One worker's scan over the contiguous bank range [begin, end): local
/// first-strictly-greater argmax, optional cancellation polling, first
/// error wins. Shared by the serial (one range spanning the bank) and
/// sharded paths so both accumulate identically.
struct ColumnRangeResult {
  double best = 0.0;
  std::ptrdiff_t best_index = -1;
  Status status = Status::OK();
};

/// How the shards of one sharded scan stop each other. `first_failed`
/// holds the lowest index of a shard that has failed (the shard count
/// while none has). The reduction returns the first failure in shard
/// order, so a shard may stop early only when a shard before it failed:
/// its own outcome can no longer reach the answer, while an earlier
/// shard's can, and that shard must run on to report it.
struct ShardStop {
  std::atomic<std::size_t>* first_failed;
  std::size_t shard;

  bool EarlierShardFailed() const {
    return first_failed->load(std::memory_order_relaxed) < shard;
  }
  void Fail() const {
    std::size_t cur = first_failed->load(std::memory_order_relaxed);
    while (shard < cur &&
           !first_failed->compare_exchange_weak(cur, shard,
                                                std::memory_order_relaxed)) {
    }
  }
};

ColumnRangeResult ScanColumnRange(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::size_t begin, std::size_t end,
                                  const std::function<bool()>& cancel,
                                  std::size_t check_every,
                                  const ShardStop* stop) {
  ColumnRangeResult out;
  const PreparedReference& p = bank.reference();
  LeakageWorkspace ws;
  ws.ReserveFor(bank.max_record_size(), p.size());
  for (std::size_t i = begin; i < end; ++i) {
    if ((i - begin) % check_every == 0) {
      if (stop != nullptr && stop->EarlierShardFailed()) {
        // Never returned: the reduction stops at the earlier failure.
        out.status = Status::Internal("set-leakage shard stopped");
        return out;
      }
      if (cancel && cancel()) {
        if (stop != nullptr) stop->Fail();
        out.status = Status::DeadlineExceeded(
            "set-leakage scan cancelled after " + std::to_string(i - begin) +
            " of " + std::to_string(end - begin) + " records");
        return out;
      }
    }
    Result<double> l = engine.RecordLeakageColumnar(bank.view(i), p, &ws);
    if (!l.ok()) {
      if (stop != nullptr) stop->Fail();
      out.status = l.status();
      return out;
    }
    if (out.best_index < 0 || *l > out.best) {
      out.best = *l;
      out.best_index = static_cast<std::ptrdiff_t>(i);
    }
  }
  return out;
}

}  // namespace

Result<double> SetLeakageColumnar(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::ptrdiff_t* argmax,
                                  const ColumnScanOptions& options) {
  // Request-scoped attribution covers every exit (success and
  // cancellation); records are charged up front as the count visible to
  // the scan.
  obs::PhaseTimer eval_phase(options.ctx, obs::Phase::kEval);
  if (options.ctx != nullptr) {
    options.ctx->AddRecordsScanned(bank.size());
    options.ctx->set_kernel_variant(kern::Active().name);
  }
  WallTimer timer;
  const std::size_t check_every =
      options.check_every == 0 ? 1 : options.check_every;
  std::size_t num_threads =
      options.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads;
  num_threads = std::min(num_threads, bank.size());

  ColumnRangeResult reduced;
  if (num_threads <= 1) {
    reduced = ScanColumnRange(bank, engine, 0, bank.size(), options.cancel,
                              check_every, nullptr);
    if (!reduced.status.ok()) return reduced.status;
  } else {
    // Contiguous shards: each worker streams one slice of the columns front
    // to back, and reducing in worker order reproduces the serial scan's
    // first-strictly-greater argmax and its first error exactly.
    std::vector<ColumnRangeResult> results(num_threads);
    std::atomic<std::size_t> first_failed{num_threads};
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    const std::size_t chunk = (bank.size() + num_threads - 1) / num_threads;
    for (std::size_t t = 0; t < num_threads; ++t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = std::min(bank.size(), begin + chunk);
      workers.emplace_back([&, t, begin, end] {
        const ShardStop stop{&first_failed, t};
        results[t] = ScanColumnRange(bank, engine, begin, end, options.cancel,
                                     check_every, &stop);
      });
    }
    for (auto& w : workers) w.join();
    for (const ColumnRangeResult& r : results) {
      if (!r.status.ok()) return r.status;
      if (r.best_index < 0) continue;
      if (reduced.best_index < 0 || r.best > reduced.best) {
        reduced.best = r.best;
        reduced.best_index = r.best_index;
      }
    }
  }
  SetLeakageLatency().Observe(timer.ElapsedSeconds());
  if (argmax != nullptr) *argmax = reduced.best_index;
  return reduced.best_index < 0 ? 0.0 : reduced.best;
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
