#include "check/oracle.h"

#include <cmath>
#include <cstdint>
#include <optional>

#include "core/bounds.h"
#include "core/measure_family.h"
#include "util/string_util.h"

namespace infoleak::check {
namespace {

/// AutoLeakage's default dispatch threshold; the oracle's naive engine is
/// capped here so the auto-dispatch replication can always evaluate it.
constexpr std::size_t kAutoNaiveCutoff = 16;

std::string Render(const Result<double>& v) {
  if (!v.ok()) return "<error: " + v.status().message() + ">";
  return FormatDoubleRoundTrip(*v);
}

/// Bit-identity: same ok-ness, and on success the exact same double.
void SameBits(const CheckCase& c, const char* kind, const std::string& what,
              const Result<double>& a, const Result<double>& b,
              OracleOutcome* out) {
  ++out->comparisons;
  if (a.ok() != b.ok() || (a.ok() && *a != *b)) {
    out->findings.push_back(
        Finding{kind, what + ": " + Render(a) + " vs " + Render(b), c});
  }
}

/// `c.r` filled into a one-record bank against `c.p`: the view side of
/// every cross-entry comparison.
struct BankFixture {
  explicit BankFixture(const CheckCase& c) : ref(c.p, c.wm), bank(ref) {
    bank.Append(c.r);
  }
  PreparedReference ref;
  ColumnBank bank;
  LeakageWorkspace ws;
};

/// The cross-entry property for one engine's leakage: the `Record` entry
/// point against the bank view and, with `scans`, against the set scan
/// (value and argmax 0) and the batch scan over the bank — bit for bit.
/// Returns the `Record` entry's answer.
Result<double> CrossEntryLeakage(const LeakageEngine& e, const CheckCase& c,
                                 const std::string& what, bool scans,
                                 BankFixture* f, OracleOutcome* out) {
  const Result<double> entry = e.RecordLeakage(c.r, c.p, c.wm);
  SameBits(c, "cross-entry", what + " (bank view)", entry,
           e.RecordLeakageColumnar(f->bank.view(0), f->ref, &f->ws), out);
  if (!scans) return entry;
  std::ptrdiff_t argmax = -2;
  const Result<double> set = SetLeakageColumnar(f->bank, e, &argmax);
  SameBits(c, "cross-entry", what + " (set scan)", entry, set, out);
  ++out->comparisons;
  if (set.ok() && argmax != 0) {
    out->findings.push_back(Finding{
        "cross-entry",
        what + " (set scan): argmax " + std::to_string(argmax) +
            " over a one-record bank",
        c});
  }
  const Result<std::vector<double>> batch = BatchLeakageColumnar(f->bank, e);
  Result<double> first =
      Status::Internal("batch scan did not return one value");
  if (!batch.ok()) {
    first = batch.status();
  } else if (batch->size() == 1) {
    first = (*batch)[0];
  }
  SameBits(c, "cross-entry", what + " (batch scan)", entry, first, out);
  return entry;
}

/// The cross-entry property for expected precision: the `Record` entry
/// point against the bank view. Returns the `Record` entry's answer.
Result<double> CrossEntryPrecision(const LeakageEngine& e, const CheckCase& c,
                                   const std::string& what, BankFixture* f,
                                   OracleOutcome* out) {
  const Result<double> entry = e.ExpectedPrecision(c.r, c.p, c.wm);
  SameBits(c, "cross-entry", what + " (bank view)", entry,
           e.ExpectedPrecisionColumnar(f->bank.view(0), f->ref, &f->ws), out);
  return entry;
}

}  // namespace

Oracle::Oracle(OracleConfig config)
    : config_(config),
      naive_(kAutoNaiveCutoff),
      approx1_(1),
      approx2_(2),
      auto_(kAutoNaiveCutoff),
      mc_(config.mc_samples) {}

OracleOutcome Oracle::Evaluate(const CheckCase& c, uint64_t case_seed) const {
  OracleOutcome out;
  auto fail = [&](const char* kind, std::string detail) {
    out.findings.push_back(Finding{kind, std::move(detail), c});
  };
  auto in_range = [&](const char* what, const Result<double>& v) {
    ++out.comparisons;
    if (v.ok() && !(*v >= 0.0 && *v <= 1.0)) {
      fail("range", std::string(what) + " = " + Render(v) +
                        " is outside [0, 1]");
    }
  };

  BankFixture fixture(c);
  const bool scans = config_.check_batch;

  const bool uniform = c.wm.IsConstantOver(c.r, c.p);
  const bool enumerable = c.r.size() <= kAutoNaiveCutoff;
  const bool small = c.r.size() <= config_.naive_max;

  // ---- Per-engine values, each cross-checked across entry points ---------
  Result<double> naive_p = Status::NotSupported("naive disabled");
  if (config_.check_naive) {
    naive_p = CrossEntryLeakage(naive_, c, "naive leakage", scans, &fixture,
                                &out);
    in_range("naive leakage", naive_p);
    ++out.comparisons;
    if (naive_p.ok() != enumerable) {
      fail("error-contract",
           "naive must succeed exactly when |r| <= " +
               std::to_string(kAutoNaiveCutoff) + "; |r|=" +
               std::to_string(c.r.size()) + " gave " + Render(naive_p));
    }
  }

  Result<double> exact_p = Status::NotSupported("exact disabled");
  if (config_.check_exact) {
    exact_p = CrossEntryLeakage(exact_, c, "exact leakage", scans, &fixture,
                                &out);
    in_range("exact leakage", exact_p);
    ++out.comparisons;
    if (exact_p.ok() != uniform) {
      fail("error-contract",
           std::string("exact must succeed exactly when the weights are "
                       "uniform over (r, p); uniform=") +
               (uniform ? "true" : "false") + " gave " + Render(exact_p));
    }
  }

  Result<double> approx1_p = Status::NotSupported("approx disabled");
  Result<double> approx2_p = approx1_p;
  if (config_.check_approx) {
    approx1_p = CrossEntryLeakage(approx1_, c, "approx order-1 leakage", scans,
                                  &fixture, &out);
    approx2_p = CrossEntryLeakage(approx2_, c, "approx order-2 leakage", scans,
                                  &fixture, &out);
    in_range("approx order-1 leakage", approx1_p);
    in_range("approx order-2 leakage", approx2_p);
    ++out.comparisons;
    if (approx1_p.ok() && approx2_p.ok() && !(*approx1_p <= *approx2_p)) {
      fail("approx-order", "order-1 " + Render(approx1_p) +
                               " > order-2 " + Render(approx2_p) +
                               " (the variance correction is non-negative)");
    }
  }

  Result<double> auto_p = Status::NotSupported("auto disabled");
  if (config_.check_auto) {
    auto_p = CrossEntryLeakage(auto_, c, "auto leakage", scans, &fixture,
                               &out);
    in_range("auto leakage", auto_p);
    if (scans) {
      // The Database convenience builds its own bank over a database.
      Database db;
      db.Add(c.r);
      std::ptrdiff_t argmax = -2;
      const Result<double> set = SetLeakage(db, c.p, c.wm, auto_, &argmax);
      SameBits(c, "cross-entry", "auto leakage (database SetLeakage)", auto_p,
               set, &out);
      ++out.comparisons;
      if (set.ok() && argmax != 0) {
        fail("cross-entry", "auto leakage (database SetLeakage): argmax " +
                                std::to_string(argmax) +
                                " over a one-record database");
      }
    }
    // Replicate the documented dispatch rule and demand bit-identity with
    // the engine it names.
    const Result<double>& expected =
        uniform ? exact_p : (enumerable ? naive_p : approx2_p);
    const char* expected_name =
        uniform ? "exact" : (enumerable ? "naive" : "approx");
    if (config_.check_exact && config_.check_naive && config_.check_approx) {
      ++out.comparisons;
      if (expected.ok() != auto_p.ok() ||
          (auto_p.ok() && *auto_p != *expected)) {
        fail("auto-dispatch", std::string("auto = ") + Render(auto_p) +
                                  " but its rule picks " + expected_name +
                                  " = " + Render(expected));
      }
    }
  }

  // Expected recall is engine-independent and exact; check the two entry
  // points against each other and the range.
  {
    const Result<double> recall = naive_.ExpectedRecall(c.r, c.p, c.wm);
    SameBits(c, "cross-entry", "expected recall (bank view)", recall,
             naive_.ExpectedRecallColumnar(fixture.bank.view(0), fixture.ref,
                                           &fixture.ws),
             &out);
    in_range("expected recall", recall);
  }

  // Expected precision: same cross-checks as leakage, cheaper tolerance
  // set (no Taylor bound is derived for it).
  if (config_.check_naive && config_.check_exact) {
    const Result<double> prec_naive = CrossEntryPrecision(
        naive_, c, "naive expected precision", &fixture, &out);
    const Result<double> prec_exact = CrossEntryPrecision(
        exact_, c, "exact expected precision", &fixture, &out);
    in_range("naive expected precision", prec_naive);
    in_range("exact expected precision", prec_exact);
    if (uniform && small && prec_naive.ok() && prec_exact.ok()) {
      ++out.comparisons;
      if (std::abs(*prec_naive - *prec_exact) > config_.exact_tol) {
        fail("exact-vs-naive",
             "expected precision: naive " + Render(prec_naive) +
                 " vs exact " + Render(prec_exact) + " differ by more than " +
                 FormatDoubleRoundTrip(config_.exact_tol));
      }
    }
  }

  // ---- Truth and the analytic tolerances ---------------------------------
  std::optional<double> truth;
  if (small && naive_p.ok()) {
    truth = *naive_p;
  } else if (uniform && exact_p.ok()) {
    truth = *exact_p;
  }

  if (uniform && small && naive_p.ok() && exact_p.ok()) {
    ++out.comparisons;
    if (std::abs(*naive_p - *exact_p) > config_.exact_tol) {
      fail("exact-vs-naive",
           "naive " + Render(naive_p) + " vs exact " + Render(exact_p) +
               " differ by " +
               FormatDoubleRoundTrip(std::abs(*naive_p - *exact_p)) +
               " > " + FormatDoubleRoundTrip(config_.exact_tol));
    }
  }

  if (config_.check_approx && truth.has_value()) {
    const Result<double>* approxes[] = {&approx1_p, &approx2_p};
    for (int order = 1; order <= 2; ++order) {
      const Result<double>& a = *approxes[order - 1];
      if (!a.ok()) continue;
      const double bound = ApproxLeakageErrorBound(c.r, c.p, c.wm, order);
      const double tol = bound + config_.slack + config_.exact_tol;
      ++out.comparisons;
      if (std::abs(*a - *truth) > tol) {
        fail("approx-bound",
             "order-" + std::to_string(order) + " Taylor " + Render(a) +
                 " vs truth " + FormatDoubleRoundTrip(*truth) +
                 " differ by " + FormatDoubleRoundTrip(std::abs(*a - *truth)) +
                 " > computed bound " + FormatDoubleRoundTrip(bound) +
                 " (+slack)");
      }
    }
  }

  if (config_.check_bounds) {
    const LeakageBounds lb = BoundRecordLeakage(c.r, c.p, c.wm);
    const LeakageBounds vb =
        BoundRecordLeakageColumnar(fixture.bank, 0, &fixture.ws);
    ++out.comparisons;
    if (lb.lower != vb.lower || lb.upper != vb.upper) {
      fail("cross-entry",
           "bounds: Record [" + FormatDoubleRoundTrip(lb.lower) + ", " +
               FormatDoubleRoundTrip(lb.upper) + "] vs bank view [" +
               FormatDoubleRoundTrip(vb.lower) + ", " +
               FormatDoubleRoundTrip(vb.upper) + "]");
    }
    ++out.comparisons;
    if (!(lb.lower >= 0.0 && lb.lower <= lb.upper && lb.upper <= 1.0)) {
      fail("bounds", "malformed bracket [" + FormatDoubleRoundTrip(lb.lower) +
                         ", " + FormatDoubleRoundTrip(lb.upper) + "]");
    }
    if (truth.has_value()) {
      ++out.comparisons;
      if (*truth < lb.lower - config_.slack ||
          *truth > lb.upper + config_.slack) {
        fail("bounds", "truth " + FormatDoubleRoundTrip(*truth) +
                           " escapes [" + FormatDoubleRoundTrip(lb.lower) +
                           ", " + FormatDoubleRoundTrip(lb.upper) + "]");
      }
    } else if (config_.check_approx && approx2_p.ok()) {
      // No independent truth (large, non-uniform): the Taylor value must
      // still land inside the bracket widened by its own error bound.
      const double bound = ApproxLeakageErrorBound(c.r, c.p, c.wm, 2);
      ++out.comparisons;
      if (*approx2_p < lb.lower - bound - config_.slack ||
          *approx2_p > lb.upper + bound + config_.slack) {
        fail("bounds",
             "approx " + Render(approx2_p) + " escapes the bound-widened "
                 "bracket [" + FormatDoubleRoundTrip(lb.lower) + ", " +
                 FormatDoubleRoundTrip(lb.upper) + "] +/- " +
                 FormatDoubleRoundTrip(bound));
      }
    }
  }

  if (config_.check_mc) {
    CrossEntryLeakage(mc_, c, "monte-carlo leakage", scans, &fixture, &out);
    CrossEntryPrecision(mc_, c, "monte-carlo expected precision", &fixture,
                        &out);
    const Result<MonteCarloLeakage::Estimate> est =
        mc_.EstimateLeakage(c.r, c.p, c.wm, case_seed);
    const Result<MonteCarloLeakage::Estimate> est2 =
        mc_.EstimateLeakage(c.r, c.p, c.wm, case_seed);
    ++out.comparisons;
    if (est.ok() != est2.ok() ||
        (est.ok() && (est->mean != est2->mean ||
                      est->standard_error != est2->standard_error))) {
      fail("monte-carlo-repro",
           "same seed, different estimates: " +
               (est.ok() ? FormatDoubleRoundTrip(est->mean) : "<error>") +
               " vs " +
               (est2.ok() ? FormatDoubleRoundTrip(est2->mean) : "<error>"));
    }
    if (est.ok()) {
      in_range("monte-carlo mean", Result<double>(est->mean));
      if (truth.has_value()) {
        // Empirical-Bernstein-style half-width: the sigma·SE term alone is
        // a trap near boundary confidences — when (say) conf = 1 − 1e-7,
        // all n samples usually come out identical, the sample variance is
        // exactly 0, and the CI degenerates even though a true deviation
        // of order 1/n is statistically expected. The range/n term (F1 has
        // range 1) keeps the band honest there while staying far below any
        // systematic estimator bias.
        const double bernstein =
            config_.mc_sigmas * config_.mc_sigmas /
            static_cast<double>(mc_.samples());
        const double tol = config_.mc_sigmas * est->standard_error +
                           bernstein + config_.slack;
        ++out.comparisons;
        if (std::abs(est->mean - *truth) > tol) {
          fail("monte-carlo-ci",
               "mean " + FormatDoubleRoundTrip(est->mean) + " vs truth " +
                   FormatDoubleRoundTrip(*truth) + " differ by " +
                   FormatDoubleRoundTrip(std::abs(est->mean - *truth)) +
                   " > " + FormatDoubleRoundTrip(config_.mc_sigmas) +
                   "*SE+sigma^2/n+slack = " + FormatDoubleRoundTrip(tol));
        }
      }
    }
  }

  EvaluateMeasures(c, MeasureEngines{}, &out);

  return out;
}

void Oracle::EvaluateMeasures(const CheckCase& c, const MeasureEngines& engines,
                              OracleOutcome* out) const {
  const bool do_pml = config_.check_pml;
  const bool do_gw = config_.check_guesswork;
  const bool do_ou = config_.check_overunder;
  if (!do_pml && !do_gw && !do_ou) return;

  const LeakageEngine* pml_e =
      engines.pml ? engines.pml : MeasureEngineSingleton(Measure::kPml);
  const LeakageEngine* gw_e = engines.guesswork
                                  ? engines.guesswork
                                  : MeasureEngineSingleton(Measure::kGuesswork);
  const LeakageEngine* under_e =
      engines.under ? engines.under : MeasureEngineSingleton(Measure::kUnder);
  const LeakageEngine* over_e =
      engines.over ? engines.over : MeasureEngineSingleton(Measure::kOver);

  auto fail = [&](const char* kind, std::string detail) {
    out->findings.push_back(Finding{kind, std::move(detail), c});
  };
  auto same_bits = [&](const char* kind, const std::string& what,
                       const Result<double>& a, const Result<double>& b) {
    SameBits(c, kind, what, a, b, out);
  };
  auto in_range = [&](const std::string& what, const Result<double>& v) {
    ++out->comparisons;
    if (v.ok() && !(*v >= 0.0 && *v <= 1.0)) {
      fail("range", what + " = " + Render(v) + " is outside [0, 1]");
    }
  };

  BankFixture fixture(c);

  // ---- cross-entry: every entry point of every measure agrees bit for bit
  struct Row {
    const char* what;
    const LeakageEngine* e;
    bool on;
    bool has_precision;
  };
  const Row rows[] = {
      {"pml leakage", pml_e, do_pml, true},
      {"guesswork leakage", gw_e, do_gw, true},
      {"under leakage", under_e, do_ou, false},
      {"over leakage", over_e, do_ou, false},
  };
  // `Record`-entry values, indexed like `rows`; the monotone and truth
  // checks below reuse them (every entry point agrees once cross-entry
  // passed, so any one is "the" value).
  Result<double> vals[4] = {
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
      Status::NotSupported("measure disabled"),
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const Row& row = rows[i];
    if (!row.on) continue;
    vals[i] = CrossEntryLeakage(*row.e, c, row.what, config_.check_batch,
                                &fixture, out);
    in_range(row.what, vals[i]);
    const std::string what = std::string(row.e->name()) + " precision";
    const Result<double> prec =
        CrossEntryPrecision(*row.e, c, what, &fixture, out);
    if (row.has_precision) {
      in_range(what, prec);
    } else {
      // under/over bound expected F1 only; a precision value would be
      // unsound, so the engines must refuse rather than answer.
      ++out->comparisons;
      if (prec.ok()) {
        fail("error-contract",
             what + " must be NotSupported, got " + Render(prec));
      }
    }
  }
  const Result<double>& pml_v = vals[0];
  const Result<double>& gw_v = vals[1];
  const Result<double>& under_v = vals[2];
  const Result<double>& over_v = vals[3];

  const bool uniform = c.wm.IsConstantOver(c.r, c.p);
  const bool small = c.r.size() <= config_.naive_max;
  const double wp = c.wm.TotalWeight(c.p);

  // Expected-F1 truth, by the same rule Evaluate uses: naive when
  // enumerable (any weights), else Algorithm 1 when uniform.
  std::optional<double> truth;
  if (small) {
    const Result<double> n = naive_.RecordLeakageColumnar(
        fixture.bank.view(0), fixture.ref, &fixture.ws);
    if (n.ok()) truth = *n;
  } else if (uniform) {
    const Result<double> e = exact_.RecordLeakageColumnar(
        fixture.bank.view(0), fixture.ref, &fixture.ws);
    if (e.ok()) truth = *e;
  }

  // ---- measure-truth: independent recomputations --------------------------
  // pml vs a brute-force maximum over every feasible world. The engine's
  // closed form rests on a monotonicity argument; the enumeration does not,
  // so a wrong "optimal world" choice shows up here.
  if (do_pml && small && pml_v.ok()) {
    struct Attr {
      double conf;
      double w;
      bool matched;
    };
    std::vector<Attr> attrs;
    attrs.reserve(c.r.size());
    for (const auto& a : c.r) {
      attrs.push_back({a.confidence, c.wm.Weight(a.label),
                       c.p.Find(a.label, a.value) != nullptr});
    }
    const std::size_t n = attrs.size();
    double best = 0.0;
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      double total = 0.0;
      double overlap = 0.0;
      bool feasible = true;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          if (attrs[i].conf == 0.0) {
            feasible = false;
            break;
          }
          total += attrs[i].w;
          if (attrs[i].matched) overlap += attrs[i].w;
        } else if (attrs[i].conf == 1.0) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      const double denom = total + wp;
      const double f1 = denom > 0.0 ? 2.0 * overlap / denom : 0.0;
      if (f1 > best) best = f1;
    }
    ++out->comparisons;
    if (std::abs(*pml_v - best) > config_.exact_tol) {
      fail("measure-truth",
           "pml " + Render(pml_v) + " vs brute-force world maximum " +
               FormatDoubleRoundTrip(best) + " differ by more than " +
               FormatDoubleRoundTrip(config_.exact_tol));
    }
  }

  // guesswork vs the modal world materialized as a deterministic record and
  // pushed through the Taylor engine: with every confidence at 1 the world
  // distribution is a point mass, Var[Y] = 0, and the order-2 value is the
  // modal world's F1 exactly — an independent code path end to end.
  if (do_gw && gw_v.ok()) {
    Record modal;
    for (const auto& a : c.r) {
      if (a.confidence >= 0.5) modal.Insert(Attribute(a.label, a.value, 1.0));
    }
    const Result<double> direct = approx2_.RecordLeakage(modal, c.p, c.wm);
    if (direct.ok()) {
      ++out->comparisons;
      if (std::abs(*gw_v - *direct) > config_.exact_tol) {
        fail("measure-truth",
             "guesswork " + Render(gw_v) +
                 " vs modal-world F1 via the Taylor engine " + Render(direct) +
                 " differ by more than " +
                 FormatDoubleRoundTrip(config_.exact_tol));
      }
    }
  }

  // ---- measure-order: the family's provable inequalities ------------------
  // E[F1] ≤ max-world F1, and the modal world is one feasible world.
  if (do_pml && pml_v.ok()) {
    if (truth.has_value()) {
      ++out->comparisons;
      if (*truth > *pml_v + config_.slack) {
        fail("measure-order", "expected-F1 truth " +
                                  FormatDoubleRoundTrip(*truth) +
                                  " exceeds pml " + Render(pml_v));
      }
    }
    if (do_gw && gw_v.ok()) {
      ++out->comparisons;
      if (*gw_v > *pml_v + config_.slack) {
        fail("measure-order",
             "guesswork " + Render(gw_v) + " exceeds pml " + Render(pml_v));
      }
    }
  }

  // ---- measure-bracket: under ≤ E[F1] ≤ over, and under ≤ over ------------
  if (do_ou) {
    if (under_v.ok() && over_v.ok()) {
      ++out->comparisons;
      if (!(*under_v <= *over_v)) {
        fail("measure-bracket", "under " + Render(under_v) + " > over " +
                                    Render(over_v));
      }
    }
    if (truth.has_value()) {
      if (under_v.ok()) {
        ++out->comparisons;
        if (*truth < *under_v - config_.slack) {
          fail("measure-bracket",
               "truth " + FormatDoubleRoundTrip(*truth) +
                   " falls below under " + Render(under_v));
        }
      }
      if (over_v.ok()) {
        ++out->comparisons;
        if (*truth > *over_v + config_.slack) {
          fail("measure-bracket", "truth " + FormatDoubleRoundTrip(*truth) +
                                      " escapes above over " +
                                      Render(over_v));
        }
      }
    }
  }

  // ---- measure-vs-bounds: the bound engines ARE the bounds, bitwise -------
  // (FinishUnitInterval's clamp is the identity on a well-formed bracket,
  // so any difference is a real divergence between the two code paths.)
  if (do_ou) {
    const LeakageBounds lb = BoundRecordLeakage(c.r, c.p, c.wm);
    if (under_v.ok()) {
      ++out->comparisons;
      if (*under_v != lb.lower) {
        fail("measure-vs-bounds",
             "under " + Render(under_v) + " vs BoundRecordLeakage lower " +
                 FormatDoubleRoundTrip(lb.lower));
      }
    }
    if (over_v.ok()) {
      ++out->comparisons;
      if (*over_v != lb.upper) {
        fail("measure-vs-bounds",
             "over " + Render(over_v) + " vs BoundRecordLeakage upper " +
                 FormatDoubleRoundTrip(lb.upper));
      }
    }
  }

  // ---- measure-degenerate: one possible world, everyone must report it ----
  // All confidences in {0, 1} collapse the distribution to a point: the
  // included set is exactly the confidence-1 attributes, its F1 is directly
  // computable at any record size, and max / modal / expectation coincide.
  // The Jensen lower bound is tight on a point mass too.
  bool degenerate = true;
  for (const auto& a : c.r) {
    if (a.confidence != 0.0 && a.confidence != 1.0) {
      degenerate = false;
      break;
    }
  }
  if (degenerate) {
    double total = 0.0;
    double overlap = 0.0;
    for (const auto& a : c.r) {
      if (a.confidence != 1.0) continue;
      const double w = c.wm.Weight(a.label);
      total += w;
      if (c.p.Find(a.label, a.value) != nullptr) overlap += w;
    }
    const double denom = total + wp;
    const double f1 = denom > 0.0 ? 2.0 * overlap / denom : 0.0;
    if (std::isfinite(f1)) {
      auto agree = [&](const char* what, const Result<double>& m) {
        if (!m.ok()) return;
        ++out->comparisons;
        if (std::abs(*m - f1) > config_.exact_tol) {
          fail("measure-degenerate",
               std::string(what) + " " + Render(m) +
                   " vs the single world's F1 " + FormatDoubleRoundTrip(f1));
        }
      };
      if (do_pml) agree("pml", pml_v);
      if (do_gw) agree("guesswork", gw_v);
      if (do_ou) {
        agree("under", under_v);
        if (over_v.ok()) {
          ++out->comparisons;
          if (f1 > *over_v + config_.slack) {
            fail("measure-degenerate",
                 "single world's F1 " + FormatDoubleRoundTrip(f1) +
                     " escapes above over " + Render(over_v));
          }
        }
      }
    }
  }

  // ---- measure-monotone: a fresh unmatched attribute cannot help ----------
  // Extending r with an attribute absent from p adds no overlap: pml skips
  // it outright when conf < 1 (bit-identical by the branching-skip
  // contract); guesswork skips it below the 0.5 modal threshold and
  // otherwise only grows the modal denominator; the under/over bounds both
  // weakly decrease (larger E[Y] in every Jensen term, unchanged recall
  // mass).
  {
    bool label_free = true;
    for (const auto& a : c.r) {
      if (a.label == "__ext") {
        label_free = false;
        break;
      }
    }
    for (const auto& a : c.p) {
      if (a.label == "__ext") {
        label_free = false;
        break;
      }
    }
    if (label_free) {
      auto leq = [&](const char* what, const Result<double>& base,
                     const Result<double>& ext) {
        if (!base.ok() || !ext.ok()) return;
        ++out->comparisons;
        if (*ext > *base + config_.slack) {
          fail("measure-monotone",
               std::string(what) + " grew from " + Render(base) + " to " +
                   Render(ext) + " on an unmatched extension");
        }
      };
      const double confs[] = {0.75, 0.25};
      for (const double conf : confs) {
        Record ext = c.r;
        ext.Insert(Attribute("__ext", "1", conf));
        if (do_pml) {
          same_bits("measure-monotone",
                    "pml under unmatched conf-" + FormatDoubleRoundTrip(conf) +
                        " extension",
                    pml_e->RecordLeakage(ext, c.p, c.wm), pml_v);
        }
        if (do_gw) {
          const Result<double> g = gw_e->RecordLeakage(ext, c.p, c.wm);
          if (conf < 0.5) {
            same_bits("measure-monotone",
                      "guesswork under sub-modal unmatched extension", g,
                      gw_v);
          } else {
            leq("guesswork", gw_v, g);
          }
        }
        if (do_ou) {
          leq("under", under_v, under_e->RecordLeakage(ext, c.p, c.wm));
          leq("over", over_v, over_e->RecordLeakage(ext, c.p, c.wm));
        }
      }
    }
  }
}

}  // namespace infoleak::check
