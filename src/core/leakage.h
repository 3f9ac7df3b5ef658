#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <string_view>

#include "core/column_bank.h"
#include "core/database.h"
#include "core/measures.h"
#include "core/prepared.h"
#include "core/record.h"
#include "core/weights.h"

#include "util/result.h"

namespace infoleak {

/// \brief Computes the record leakage L(r, p) of Definition 2.1 — the
/// expected F1 of a possible world of `r` against the reference `p` — plus
/// the expected-precision / expected-recall variants the paper mentions.
///
/// Three implementations reproduce §5:
///  * NaiveLeakage  — enumerates all 2^|r| possible worlds; arbitrary
///                    weights; exact; the correctness oracle.
///  * ExactLeakage  — Algorithm 1; O(|p|·|r|²); exact, but requires one
///                    constant weight across all labels in r and p.
///  * ApproxLeakage — second-order Taylor expansion; O(|p|·|r|); arbitrary
///                    weights; highly accurate in practice (Table 5).
///
/// One evaluation path. An engine defines each quantity exactly once, as a
/// virtual over a `ColumnRecordView` — the record's confidence, weight and
/// match-position columns — against a `PreparedReference`, with a
/// caller-owned `LeakageWorkspace`. Every other input shape is an adapter
/// that only fills a view:
///  * the `Record` entry points below prepare `p`, fill a one-record
///    `PreparedRecord` and call the virtual;
///  * set and batch scans read the views of a `ColumnBank`, which a
///    `Database` caller builds with `ColumnBank::FromDatabase` (or lets
///    `SetLeakage` build).
/// Both holders fill their columns through one cell-resolution function in
/// core/column_bank.cpp, so every entry point returns bit-identical results.
///
/// Every successful evaluation returns a value in [0, 1]: the measures are
/// expectations of statistics bounded by 1, so finite totals are clamped
/// back into range when floating-point rounding (or the Taylor truncation
/// of ApproxLeakage) pushes them out, and non-finite totals — possible only
/// when the weight model overflows double arithmetic — surface as
/// InvalidArgument instead of silently propagating NaN/Inf.
///
/// Engines are stateless and safe to share across threads; workspaces are
/// not, so use one workspace per thread.
class LeakageEngine {
 public:
  virtual ~LeakageEngine() = default;

  /// Engine name for benchmark tables ("naive", "exact", "approx", "auto").
  virtual std::string_view name() const = 0;

  // ----- Evaluation: one virtual per quantity, over a record view ----------

  /// L(r, p) = E[F1(r̄, p)] over the possible worlds r̄ of r. `r` must have
  /// been filled against `p`.
  virtual Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                               const PreparedReference& p,
                                               LeakageWorkspace* ws) const = 0;

  /// E[Pr(r̄, p)]: Definition 2.1 with F1 replaced by precision.
  virtual Result<double> ExpectedPrecisionColumnar(
      const ColumnRecordView& r, const PreparedReference& p,
      LeakageWorkspace* ws) const = 0;

  /// E[Re(r̄, p)]: Definition 2.1 with F1 replaced by recall. Recall is
  /// linear in the attribute indicators, so it is exact and the same for
  /// every engine: Σ_{b∈p} p(b,r)·w_b / Σ_{b∈p} w_b.
  Result<double> ExpectedRecallColumnar(const ColumnRecordView& r,
                                        const PreparedReference& p,
                                        LeakageWorkspace* ws) const;

  // ----- Record entry points: adapters that fill a one-record view --------

  Result<double> RecordLeakage(const Record& r, const Record& p,
                               const WeightModel& wm) const;
  Result<double> ExpectedPrecision(const Record& r, const Record& p,
                                   const WeightModel& wm) const;
  Result<double> ExpectedRecall(const Record& r, const Record& p,
                                const WeightModel& wm) const;

 protected:
  /// The engine contract's finisher: finite totals clamp into [0, 1];
  /// non-finite ones become InvalidArgument naming `what`.
  static Result<double> FinishUnitInterval(double total, const char* what);
};

/// \brief Exponential-time oracle: enumerates possible worlds (§5's naive
/// algorithm, O(2^|r|·|r|)). Refuses records larger than `max_attributes`.
class NaiveLeakage : public LeakageEngine {
 public:
  explicit NaiveLeakage(std::size_t max_attributes = 25)
      : max_attributes_(max_attributes) {}

  std::string_view name() const override { return "naive"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  std::size_t max_attributes_;
};

/// \brief Algorithm 1 (§5.1): exact record leakage in O(|p|·|r|²) time via
/// polynomial-coefficient integration. Requires all labels occurring in `r`
/// and `p` to carry one common weight (the weight value itself cancels);
/// returns InvalidArgument otherwise.
class ExactLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "exact"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

/// \brief Second-order Taylor approximation (§5.2): O(|p|·|r|) time,
/// arbitrary weights. Approximates E[w_b/(Y+c)] by
/// w_b/(E[Y]+c) + w_b·Var[Y]/(E[Y]+c)³ with Y the total believed weight of
/// r̄ minus the matched attribute.
///
/// `order` selects the Taylor truncation: 1 keeps only the mean term
/// (F(E[Y])), 2 (the paper's choice, default) adds the variance correction.
/// Only orders 1 and 2 exist; `Create` rejects anything else, while the
/// constructor clamps to the nearest supported order (order < 2 → 1,
/// order > 2 → 2) for callers that cannot handle a Status. The ablation
/// benchmark quantifies what the second term buys.
class ApproxLeakage : public LeakageEngine {
 public:
  /// Validating factory: fails with InvalidArgument unless order ∈ {1, 2}.
  static Result<ApproxLeakage> Create(int order);

  /// Clamps out-of-range orders to the nearest supported one (counted in
  /// the `infoleak_approx_order_clamped_total` metric).
  explicit ApproxLeakage(int order = 2);

  std::string_view name() const override {
    return order_ == 2 ? "approx" : "approx-o1";
  }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  int order_;
};

/// \brief Dispatching engine: Algorithm 1 when the weight model is constant
/// over (r, p); the naive oracle when the record is small enough to
/// enumerate; the Taylor approximation otherwise. This is the engine most
/// applications should use.
class AutoLeakage : public LeakageEngine {
 public:
  explicit AutoLeakage(std::size_t naive_cutoff = 16)
      : naive_(naive_cutoff), naive_cutoff_(naive_cutoff) {}

  std::string_view name() const override { return "auto"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;

 private:
  /// The dispatch rule: exact when one weight covers (r, p), naive when
  /// small enough to enumerate, approx otherwise.
  const LeakageEngine& Pick(const ColumnRecordView& r,
                            const PreparedReference& p) const;

  NaiveLeakage naive_;
  ExactLeakage exact_;
  ApproxLeakage approx_;
  std::size_t naive_cutoff_;
};

/// \brief The running set-leakage maximum of §2.3/§4.1: L0 = max_r L(r, p)
/// over the values offered so far, with the index of the first element
/// attaining it. This is the one place the argmax rule lives; every set
/// scan, the incremental index and the frontier's per-person worst step
/// through it, so they agree bit for bit:
///  * the first offered value always wins (an all-zero set reports its
///    element), after that a strictly greater value does, and an equal one
///    only when its index is smaller than the current argmax's — so the
///    result is (max, first argmax) whatever order the elements are offered
///    in, and an in-order caller never sees an equal value win;
///  * an empty set reads (0, -1);
///  * an element whose finite upper bound is below the current maximum, or
///    equal to it with a larger index, cannot win, so `CannotBeat` lets a
///    caller skip evaluating it.
class RunningMax {
 public:
  /// Offers element `index` with value `value`.
  void Offer(double value, std::ptrdiff_t index) {
    if (index_ < 0 || value > value_ || (value == value_ && index < index_)) {
      value_ = value;
      index_ = index;
    }
  }

  /// True when element `index`, whose value is at most `upper`, cannot
  /// replace the current maximum. Never true on an empty set or a
  /// non-finite bound.
  bool CannotBeat(double upper, std::ptrdiff_t index) const {
    return index_ >= 0 && std::isfinite(upper) &&
           (upper < value_ || (upper == value_ && index > index_));
  }

  double value() const { return value_; }
  std::ptrdiff_t index() const { return index_; }

 private:
  double value_ = 0.0;
  std::ptrdiff_t index_ = -1;
};

/// \brief Basic set leakage L0(R, p) = max_{r∈R} L(r, p) (§2.3); 0 for an
/// empty database. The `Database` convenience: prepares `p`, builds a
/// `ColumnBank` over `db` and scans it with SetLeakageColumnar, reporting
/// the first record attaining the maximum in `*argmax` (-1 when empty).
/// Callers that scan one database more than once build the bank themselves.
Result<double> SetLeakage(const Database& db, const Record& p,
                          const WeightModel& wm, const LeakageEngine& engine,
                          std::ptrdiff_t* argmax = nullptr);

// ---------------------------------------------------------------------------
// Set and batch scans over a column bank
// ---------------------------------------------------------------------------

/// \brief Set leakage L0 over a column bank: max_i L(bank[i], p), with the
/// first attaining index in `*argmax` (-1 when empty). One serial pass in
/// bank order through a `RunningMax`; the first evaluation error stops the
/// scan and is returned unchanged.
Result<double> SetLeakageColumnar(const ColumnBank& bank,
                                  const LeakageEngine& engine,
                                  std::ptrdiff_t* argmax = nullptr);

/// \brief Batch evaluation: L(bank[i], p) for every record of the bank, in
/// bank order. The building block for scoring scenarios that need
/// per-record leakages rather than the max (re-identification, ranking,
/// probabilistic bounds); callers holding loose records `Append` them to a
/// bank first.
Result<std::vector<double>> BatchLeakageColumnar(const ColumnBank& bank,
                                                 const LeakageEngine& engine);

/// \brief Single-record evaluation: L(bank[index], p), reusing the caller's
/// workspace across calls. This is the delta-maintenance entry point — an
/// incremental maintainer evaluates exactly the records appended since its
/// last run, and because the per-record computation is the same one the
/// scans perform, a sequence of these calls is bit-identical to a cold scan
/// over the same bank. `ws` may be null (a scratch workspace is then used).
Result<double> BankRecordLeakage(const ColumnBank& bank, std::size_t index,
                                 const LeakageEngine& engine,
                                 LeakageWorkspace* ws = nullptr);

/// \brief Convenience factory for the dispatching engine.
std::unique_ptr<LeakageEngine> MakeDefaultEngine();

}  // namespace infoleak
