#include "core/measure_family.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "check/case.h"
#include "check/case_gen.h"
#include "check/corpus.h"
#include "check/oracle.h"
#include "core/bounds.h"
#include "core/column_bank.h"
#include "core/leakage.h"
#include "core/record.h"
#include "core/weights.h"

namespace infoleak {
namespace {

using check::CaseGenerator;
using check::CheckCase;
using check::Finding;
using check::LoadCorpus;
using check::Oracle;
using check::OracleOutcome;

#ifndef INFOLEAK_SOURCE_DIR
#define INFOLEAK_SOURCE_DIR "."
#endif

constexpr char kCorpusDir[] = INFOLEAK_SOURCE_DIR "/tests/corpus/selfcheck";

constexpr double kTol = 1e-10;

const LeakageEngine& EngineFor(Measure m) {
  const LeakageEngine* e = MeasureEngineSingleton(m);
  EXPECT_NE(e, nullptr) << MeasureName(m);
  return *e;
}

std::vector<Measure> NonDefaultMeasures() {
  return {Measure::kPml, Measure::kGuesswork, Measure::kUnder, Measure::kOver};
}

// ---------------------------------------------------------------------------
// Vocabulary and singletons
// ---------------------------------------------------------------------------

TEST(MeasureFamilyTest, ParseMeasureRoundTripsEveryName) {
  for (Measure m : {Measure::kExpectedF1, Measure::kPml, Measure::kGuesswork,
                    Measure::kUnder, Measure::kOver}) {
    const auto parsed = ParseMeasure(MeasureName(m));
    ASSERT_TRUE(parsed.ok()) << MeasureName(m);
    EXPECT_EQ(*parsed, m);
  }
}

// The closed-vocabulary rule: an unknown measure is an error naming the
// vocabulary, never a silent fall-back to the default.
TEST(MeasureFamilyTest, ParseMeasureRejectsUnknownNames) {
  for (const char* bad : {"renyi", "PML", "expected_f1", "", "f1", "bounds"}) {
    const auto parsed = ParseMeasure(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
    EXPECT_NE(parsed.status().message().find("pml"), std::string::npos) << bad;
  }
}

// The serving layer keys per-reference indexes by engine identity, so the
// singleton must hand back the same object on every call.
TEST(MeasureFamilyTest, SingletonIsStablePerMeasure) {
  EXPECT_EQ(MeasureEngineSingleton(Measure::kExpectedF1), nullptr);
  for (Measure m : NonDefaultMeasures()) {
    const LeakageEngine* a = MeasureEngineSingleton(m);
    const LeakageEngine* b = MeasureEngineSingleton(m);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b) << MeasureName(m);
    EXPECT_EQ(a->name(), MeasureName(m));
  }
}

// ---------------------------------------------------------------------------
// Hand-computed values
// ---------------------------------------------------------------------------

// r = {A:0.6 matched, B:0.3 matched, C:1.0 unmatched}, p has 3 unit-weight
// attributes. The maximizing world includes A and B and cannot exclude C:
// pml = 2·2 / (2 + 1 + 3) = 2/3. The modal world includes A and C only:
// guesswork = 2·1 / (2 + 3) = 2/5.
TEST(MeasureFamilyTest, ClosedFormsMatchHandMath) {
  const Record r{{"A", "v1", 0.6}, {"B", "v2", 0.3}, {"C", "v3", 1.0}};
  const Record p{{"A", "v1"}, {"B", "v2"}, {"D", "v4"}};
  const WeightModel wm;
  const auto pml = EngineFor(Measure::kPml).RecordLeakage(r, p, wm);
  const auto gw = EngineFor(Measure::kGuesswork).RecordLeakage(r, p, wm);
  ASSERT_TRUE(pml.ok());
  ASSERT_TRUE(gw.ok());
  EXPECT_NEAR(*pml, 2.0 / 3.0, kTol);
  EXPECT_NEAR(*gw, 2.0 / 5.0, kTol);
}

// The 0.5 tie includes: a matched attribute at exactly 0.5 is in the modal
// world (guesswork 1), while an ulp below it is out (guesswork 0). This
// convention is documented in core/measure_family.h and must not drift.
TEST(MeasureFamilyTest, ModalTieAtExactlyHalfIncludes) {
  const Record p{{"A", "v1"}};
  const WeightModel wm;
  const auto& gw = EngineFor(Measure::kGuesswork);
  const auto at_half = gw.RecordLeakage(Record{{"A", "v1", 0.5}}, p, wm);
  const auto below = gw.RecordLeakage(
      Record{{"A", "v1", std::nextafter(0.5, 0.0)}}, p, wm);
  ASSERT_TRUE(at_half.ok());
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(*at_half, 1.0);
  EXPECT_EQ(*below, 0.0);
}

// ---------------------------------------------------------------------------
// Conventions and error contracts (the fbeta-test trio: zero weights,
// non-finite weights, over-cap records)
// ---------------------------------------------------------------------------

// All-zero weights make every denominator 0/0; the repo-wide convention is
// 0, not NaN, on every measure and on both leakage and precision.
TEST(MeasureFamilyTest, ZeroWeightsFollowZeroOverZeroConvention) {
  const Record r{{"A", "v1", 0.8}, {"B", "v2", 0.5}};
  const Record p{{"A", "v1"}, {"B", "v2"}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("A", 0.0).ok());
  ASSERT_TRUE(wm.SetWeight("B", 0.0).ok());
  for (Measure m : NonDefaultMeasures()) {
    const auto v = EngineFor(m).RecordLeakage(r, p, wm);
    ASSERT_TRUE(v.ok()) << MeasureName(m);
    EXPECT_EQ(*v, 0.0) << MeasureName(m);
  }
  for (Measure m : {Measure::kPml, Measure::kGuesswork}) {
    const auto pr = EngineFor(m).ExpectedPrecision(r, p, wm);
    ASSERT_TRUE(pr.ok()) << MeasureName(m);
    EXPECT_EQ(*pr, 0.0) << MeasureName(m);
  }
}

// Weight magnitudes whose sums overflow double range must never smuggle a
// NaN/Inf into a [0, 1] result — the same audit fbeta_leakage_test runs on
// the classic engines. pml, guesswork, and over hit a non-finite total and
// reject with InvalidArgument. The under bound is the one closed form whose
// overflow cancels (each term divides by the infinite weight total), so it
// degrades to the trivially-valid lower bound 0 instead of failing — pinned
// here so the asymmetry is a documented contract, not an accident.
TEST(MeasureFamilyTest, OverflowingWeightsAreRejectedNotNaN) {
  Record r, p;
  for (int i = 0; i < 4; ++i) {
    const std::string v = "v" + std::to_string(i);
    r.Insert(Attribute{"A", v, 0.5});
    p.Insert(Attribute{"A", v, 1.0});
  }
  WeightModel wm(1e308);  // four of these sum past DBL_MAX
  for (Measure m : {Measure::kPml, Measure::kGuesswork, Measure::kOver}) {
    const auto v = EngineFor(m).RecordLeakage(r, p, wm);
    ASSERT_FALSE(v.ok()) << MeasureName(m) << " returned "
                         << (v.ok() ? *v : 0.0);
    EXPECT_TRUE(v.status().IsInvalidArgument())
        << MeasureName(m) << ": " << v.status().ToString();
  }
  const auto under = EngineFor(Measure::kUnder).RecordLeakage(r, p, wm);
  ASSERT_TRUE(under.ok());
  EXPECT_EQ(*under, 0.0);
}

// The measure engines are closed-form and O(|r| + |p|): unlike naive
// enumeration they have no record-size cap, so a 20-attribute record that
// naive refuses must still evaluate — and still obey the family orderings
// against the exact engine (uniform weights).
TEST(MeasureFamilyTest, OverCapRecordsEvaluateOnEveryMeasure) {
  Record r, p;
  CaseGenerator gen(41);
  for (int i = 0; i < 20; ++i) {
    const std::string v = "v" + std::to_string(i);
    const std::string label(1, static_cast<char>('A' + i % 8));
    r.Insert(Attribute{label, v, 0.05 + 0.9 * (i / 19.0)});
    if (i % 2 == 0) p.Insert(Attribute{label, v, 1.0});
  }
  const WeightModel wm;
  ASSERT_FALSE(NaiveLeakage(16).RecordLeakage(r, p, wm).ok());
  const auto truth = ExactLeakage().RecordLeakage(r, p, wm);
  ASSERT_TRUE(truth.ok());
  double vals[4];
  Measure order[] = {Measure::kPml, Measure::kGuesswork, Measure::kUnder,
                     Measure::kOver};
  for (int i = 0; i < 4; ++i) {
    const auto v = EngineFor(order[i]).RecordLeakage(r, p, wm);
    ASSERT_TRUE(v.ok()) << MeasureName(order[i]);
    EXPECT_GE(*v, 0.0);
    EXPECT_LE(*v, 1.0);
    vals[i] = *v;
  }
  EXPECT_LE(*truth, vals[0] + kTol);   // expected ≤ pml
  EXPECT_LE(vals[1], vals[0] + kTol);  // guesswork ≤ pml
  EXPECT_LE(vals[2], *truth + kTol);   // under ≤ expected
  EXPECT_LE(*truth, vals[3] + kTol);   // expected ≤ over
}

// The under/over bounds are derived for F1 only; their precision analogue
// would be a different derivation, so the engines refuse rather than guess.
TEST(MeasureFamilyTest, UnderOverPrecisionIsNotSupported) {
  const Record r{{"A", "v1", 0.5}};
  const Record p{{"A", "v1"}};
  const WeightModel wm;
  for (Measure m : {Measure::kUnder, Measure::kOver}) {
    const auto pr = EngineFor(m).ExpectedPrecision(r, p, wm);
    ASSERT_FALSE(pr.ok()) << MeasureName(m);
    EXPECT_EQ(pr.status().code(), StatusCode::kNotSupported)
        << MeasureName(m) << ": " << pr.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Cross-path bit-identity and family orderings (generator-driven)
// ---------------------------------------------------------------------------

TEST(MeasureFamilyTest, StringPreparedColumnarBitIdentical) {
  CaseGenerator gen(43);
  for (int i = 0; i < 200; ++i) {
    const CheckCase c = gen.Next();
    const PreparedReference ref(c.p, c.wm);
    const PreparedRecord pr(c.r, ref);
    ColumnBank bank(ref);
    bank.Append(c.r);
    const ColumnRecordView view = bank.view(0);
    LeakageWorkspace ws;
    for (Measure m : NonDefaultMeasures()) {
      const LeakageEngine& e = EngineFor(m);
      const auto s = e.RecordLeakage(c.r, c.p, c.wm);
      const auto p2 = e.RecordLeakageColumnar(pr.view(), ref, &ws);
      const auto col = e.RecordLeakageColumnar(view, ref, &ws);
      ASSERT_EQ(s.ok(), p2.ok()) << MeasureName(m) << " " << c.name;
      ASSERT_EQ(s.ok(), col.ok()) << MeasureName(m) << " " << c.name;
      if (s.ok()) {
        EXPECT_EQ(*s, *p2) << MeasureName(m) << " " << c.name;
        EXPECT_EQ(*s, *col) << MeasureName(m) << " " << c.name;
      }
    }
  }
}

TEST(MeasureFamilyTest, FamilyOrderingsHoldOnGeneratedCases) {
  CaseGenerator gen(47);
  NaiveLeakage naive(12);
  int bracketed = 0;
  for (int i = 0; i < 300; ++i) {
    const CheckCase c = gen.Next();
    const auto pml = EngineFor(Measure::kPml).RecordLeakage(c.r, c.p, c.wm);
    const auto gw =
        EngineFor(Measure::kGuesswork).RecordLeakage(c.r, c.p, c.wm);
    const auto under =
        EngineFor(Measure::kUnder).RecordLeakage(c.r, c.p, c.wm);
    const auto over = EngineFor(Measure::kOver).RecordLeakage(c.r, c.p, c.wm);
    if (!pml.ok()) continue;  // degenerate weights fail uniformly
    ASSERT_TRUE(gw.ok()) << c.name;
    ASSERT_TRUE(under.ok()) << c.name;
    ASSERT_TRUE(over.ok()) << c.name;
    EXPECT_LE(*gw, *pml + kTol) << c.name;
    EXPECT_LE(*under, *over) << c.name;  // bitwise by the bounds contract
    if (c.r.size() <= 12) {
      const auto truth = naive.RecordLeakage(c.r, c.p, c.wm);
      if (truth.ok()) {
        EXPECT_LE(*truth, *pml + kTol) << c.name;
        EXPECT_LE(*under, *truth + kTol) << c.name;
        EXPECT_LE(*truth, *over + kTol) << c.name;
        ++bracketed;
      }
    }
  }
  EXPECT_GT(bracketed, 100);
}

// The under/over engines are the closed-form bracket *as engines*: bitwise
// equal to BoundRecordLeakage, not merely close.
TEST(MeasureFamilyTest, UnderOverAreBitwiseTheBounds) {
  CaseGenerator gen(53);
  for (int i = 0; i < 200; ++i) {
    const CheckCase c = gen.Next();
    const LeakageBounds b = BoundRecordLeakage(c.r, c.p, c.wm);
    const auto under =
        EngineFor(Measure::kUnder).RecordLeakage(c.r, c.p, c.wm);
    const auto over = EngineFor(Measure::kOver).RecordLeakage(c.r, c.p, c.wm);
    ASSERT_EQ(under.ok(), over.ok()) << c.name;
    if (!under.ok()) continue;  // non-finite bracket: rejected as a value
    EXPECT_EQ(*under, b.lower) << c.name;
    EXPECT_EQ(*over, b.upper) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Perturbation sensitivity: each measure owes at least one oracle property
// that fails when its implementation is wrong. A wrapper engine shifts the
// leakage value by a small constant — in its one view body, so every entry
// point sees the same shift, the cross-entry property stays green and only
// the semantic properties can catch it — and the oracle must report a
// finding.
// ---------------------------------------------------------------------------

class PerturbedEngine : public LeakageEngine {
 public:
  PerturbedEngine(const LeakageEngine* base, double delta)
      : base_(base), delta_(delta) {}

  std::string_view name() const override { return base_->name(); }
  Result<double> RecordLeakageColumnar(const ColumnRecordView& r,
                                       const PreparedReference& p,
                                       LeakageWorkspace* ws) const override {
    return Shift(base_->RecordLeakageColumnar(r, p, ws));
  }
  Result<double> ExpectedPrecisionColumnar(
      const ColumnRecordView& r, const PreparedReference& p,
      LeakageWorkspace* ws) const override {
    return base_->ExpectedPrecisionColumnar(r, p, ws);
  }

 private:
  Result<double> Shift(Result<double> v) const {
    if (!v.ok()) return v;
    return std::min(1.0, std::max(0.0, *v + delta_));
  }
  const LeakageEngine* base_;
  double delta_;
};

CheckCase SensitivityCase() {
  CheckCase c;
  c.r = Record{{"A", "v1", 0.6}, {"B", "v2", 0.3}, {"C", "v3", 1.0}};
  c.p = Record{{"A", "v1"}, {"B", "v2"}, {"D", "v4"}};
  c.name = "measure-sensitivity";
  return c;
}

bool HasKind(const OracleOutcome& out, const std::string& kind) {
  for (const Finding& f : out.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

// Baseline sanity: the sensitivity case itself is clean with the real
// engines, so any finding below is attributable to the perturbation.
TEST(MeasureSensitivityTest, UnperturbedEnginesAreClean) {
  Oracle oracle;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), Oracle::MeasureEngines{}, &out);
  for (const Finding& f : out.findings) {
    ADD_FAILURE() << f.kind << ": " << f.detail;
  }
  EXPECT_GT(out.comparisons, 0u);
}

TEST(MeasureSensitivityTest, PerturbedPmlFailsMeasureTruth) {
  Oracle oracle;
  const PerturbedEngine bad(MeasureEngineSingleton(Measure::kPml), 0.03);
  Oracle::MeasureEngines engines;
  engines.pml = &bad;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), engines, &out);
  EXPECT_TRUE(HasKind(out, "measure-truth"));
}

TEST(MeasureSensitivityTest, PerturbedGuessworkFailsMeasureTruth) {
  Oracle oracle;
  const PerturbedEngine bad(MeasureEngineSingleton(Measure::kGuesswork), 0.03);
  Oracle::MeasureEngines engines;
  engines.guesswork = &bad;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), engines, &out);
  EXPECT_TRUE(HasKind(out, "measure-truth"));
}

// An inflated guesswork can also cross above pml; the ordering property is
// a second, independent tripwire for the same implementation error.
TEST(MeasureSensitivityTest, InflatedGuessworkFailsMeasureOrder) {
  Oracle oracle;
  const PerturbedEngine bad(MeasureEngineSingleton(Measure::kGuesswork), 0.5);
  Oracle::MeasureEngines engines;
  engines.guesswork = &bad;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), engines, &out);
  EXPECT_TRUE(HasKind(out, "measure-order"));
}

TEST(MeasureSensitivityTest, PerturbedUnderFailsMeasureVsBounds) {
  Oracle oracle;
  const PerturbedEngine bad(MeasureEngineSingleton(Measure::kUnder), 0.03);
  Oracle::MeasureEngines engines;
  engines.under = &bad;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), engines, &out);
  EXPECT_TRUE(HasKind(out, "measure-vs-bounds"));
}

TEST(MeasureSensitivityTest, PerturbedOverFailsMeasureVsBounds) {
  Oracle oracle;
  const PerturbedEngine bad(MeasureEngineSingleton(Measure::kOver), -0.03);
  Oracle::MeasureEngines engines;
  engines.over = &bad;
  OracleOutcome out;
  oracle.EvaluateMeasures(SensitivityCase(), engines, &out);
  EXPECT_TRUE(HasKind(out, "measure-vs-bounds"));
}

// The pinned corpus entries (tests/corpus/selfcheck/measure-*.case) must
// themselves be sensitive: replay each through every single-measure
// perturbation and require at least one finding per measure. This is the
// regression form of the sensitivity proof — if a future refactor weakens
// a property until a wrong engine slips through, these cases catch it.
TEST(MeasureSensitivityTest, PinnedCorpusCasesCatchEveryPerturbedMeasure) {
  auto corpus = LoadCorpus(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().message();
  std::vector<CheckCase> cases;
  for (const CheckCase& c : *corpus) {
    if (c.name.find("measure-") != std::string::npos) cases.push_back(c);
  }
  ASSERT_GE(cases.size(), 2u) << "measure corpus entries missing from "
                              << kCorpusDir;
  Oracle oracle;
  for (Measure m : NonDefaultMeasures()) {
    const PerturbedEngine bad(MeasureEngineSingleton(m), 0.03);
    Oracle::MeasureEngines engines;
    switch (m) {
      case Measure::kPml: engines.pml = &bad; break;
      case Measure::kGuesswork: engines.guesswork = &bad; break;
      case Measure::kUnder: engines.under = &bad; break;
      case Measure::kOver: engines.over = &bad; break;
      case Measure::kExpectedF1: break;
    }
    if (m == Measure::kOver) {
      // +delta keeps an upper bound valid; an over engine goes wrong by
      // under-reporting, so perturb downward instead.
      const PerturbedEngine low(MeasureEngineSingleton(m), -0.03);
      OracleOutcome out;
      for (const CheckCase& c : cases) {
        Oracle::MeasureEngines e2;
        e2.over = &low;
        oracle.EvaluateMeasures(c, e2, &out);
      }
      EXPECT_FALSE(out.findings.empty()) << MeasureName(m);
      continue;
    }
    OracleOutcome out;
    for (const CheckCase& c : cases) {
      oracle.EvaluateMeasures(c, engines, &out);
    }
    EXPECT_FALSE(out.findings.empty()) << MeasureName(m);
  }
}

}  // namespace
}  // namespace infoleak
