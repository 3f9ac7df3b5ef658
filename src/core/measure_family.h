#pragma once

#include <optional>
#include <string_view>

#include "core/bounds.h"
#include "core/leakage.h"
#include "util/result.h"

namespace infoleak {

/// \brief The measure family: adversary models beyond the paper's
/// expected-F1 leakage, each a first-class `LeakageEngine` over the same
/// possible-worlds substrate. A "measure" answers *which statistic of the
/// world distribution* the engine reports; the default measure
/// (`expected-f1`) is the paper's E[F1(r̄, p)], served by the four classic
/// engines (naive/exact/approx/auto), and the measures below are served by
/// one dedicated engine each:
///
///  * `pml`        — pointwise maximal leakage: the largest F1 any
///                   positive-probability world attains (Saeidian et al.'s
///                   worst-case-realization stance). Closed form in O(|r|):
///                   F1 is monotone in adding matched attributes, so the
///                   maximizing world includes every matched attribute with
///                   confidence > 0 and excludes every excludable (conf < 1)
///                   unmatched one.
///  * `guesswork`  — guesswork-style leakage: the F1 of the adversary's
///                   single best guess, i.e. the modal world (include an
///                   attribute iff confidence ≥ 0.5; the 0.5 tie includes,
///                   a documented convention pinned by tests).
///  * `under`      — probabilistic under-estimate: the closed-form Jensen
///                   lower bound of core/bounds.h as an engine, guaranteed
///                   ≤ the exact expected-F1 leakage.
///  * `over`       — the matching upper bound (2·E[Re] capped at 1),
///                   guaranteed ≥ the exact value; `under ≤ over` always.
///
/// Like the classic engines, each measure is defined once, over a
/// `ColumnRecordView`; the `Record` entry points and the bank scans are
/// adapters onto that one body. Non-contributing attributes are skipped by
/// branch, never added as zero, so unmatched record extension is
/// bit-invariant — the measure-monotone oracle property relies on this.
/// They are closed-form and O(|r| + |p|), so unlike the naive engine they
/// have no record-size cap. Values obey the engine contract: finite results
/// clamp into [0, 1], non-finite totals (overflowing weight models) surface
/// as InvalidArgument. Zero total weight follows the repo's 0/0 → 0
/// convention. ExpectedPrecision carries each measure's precision analogue
/// (pml/guesswork) or NotSupported (under/over: the bounds are derived for
/// F1 only); ExpectedRecall stays the engine-independent expectation.
///
/// The selfcheck oracle (`src/check`) cross-validates the family:
/// expected ≤ pml, guesswork ≤ pml, under ≤ expected ≤ over, degenerate
/// ({0,1}-confidence) agreement, and per-measure brute-force truths — see
/// docs/measures.md for the property catalog.

/// \brief Closed vocabulary of measures the CLI `--measure` flag and the
/// wire-protocol `measure` field accept.
enum class Measure {
  kExpectedF1,  ///< the paper's E[F1] — served by the classic engines
  kPml,
  kGuesswork,
  kUnder,
  kOver,
};

/// Spellings, in enum order: "expected-f1", "pml", "guesswork", "under",
/// "over".
inline constexpr std::string_view kMeasureNames[] = {
    "expected-f1", "pml", "guesswork", "under", "over"};

/// Wire/CLI spelling of a measure.
std::string_view MeasureName(Measure m);

/// Parses a measure name; unknown names are InvalidArgument naming the
/// closed vocabulary (never a silent default — the PR 3 wire rule).
Result<Measure> ParseMeasure(std::string_view name);

/// \brief Process-wide engine singleton for a non-default measure. Stable
/// pointers by design: the serving layer keys its per-reference incremental
/// indexes by engine identity, so every request for one measure must
/// resolve to the same engine object. Returns nullptr for kExpectedF1 —
/// the default measure's engine is chosen by the engine flag/field, not
/// here.
const LeakageEngine* MeasureEngineSingleton(Measure m);

/// \brief The one name → engine lookup, shared by the CLI, the service,
/// selfcheck and the frontier sweep. Returns a process singleton (stable,
/// like MeasureEngineSingleton's) for `measure` evaluated through `engine`
/// — "auto", "naive", "exact" or "approx"; absent means "auto". A
/// non-default measure has exactly one engine, so naming an engine beside
/// one is InvalidArgument, as is an unknown engine name.
Result<const LeakageEngine*> LookupEngine(
    Measure measure, std::optional<std::string_view> engine = std::nullopt);

/// \brief Pointwise maximal leakage: max over positive-probability worlds
/// of F1(r̄, p).
class PmlLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "pml"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

/// \brief Guesswork-style leakage: F1 of the modal world (attribute
/// included iff its confidence ≥ 0.5; ties include).
class GuessworkLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "guesswork"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

/// \brief Probabilistic under-estimate: BoundRecordLeakage's lower bound as
/// an engine, bitwise equal to the bound (pinned by the measure-vs-bounds
/// oracle property).
class UnderLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "under"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  /// NotSupported: the bound is derived for F1 only.
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

/// \brief Probabilistic over-estimate: the matching upper bound as an
/// engine. `upper ≥ lower` by the bounds contract, so over ≥ under bitwise.
class OverLeakage : public LeakageEngine {
 public:
  std::string_view name() const override { return "over"; }

  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override;
  /// NotSupported: the bound is derived for F1 only.
  Result<double> ExpectedPrecisionColumnar(const ColumnRecordView& r,
                                           const PreparedReference& p,
                                           LeakageWorkspace* ws) const override;
};

}  // namespace infoleak
