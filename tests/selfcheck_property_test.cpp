#include "check/selfcheck.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include "check/case.h"
#include "check/case_gen.h"
#include "check/corpus.h"
#include "check/frontier_check.h"
#include "check/oracle.h"
#include "check/shrink.h"
#include "core/bounds.h"
#include "core/leakage.h"
#include "util/string_util.h"

namespace infoleak::check {
namespace {

#ifndef INFOLEAK_SOURCE_DIR
#define INFOLEAK_SOURCE_DIR "."
#endif

constexpr char kCorpusDir[] = INFOLEAK_SOURCE_DIR "/tests/corpus/selfcheck";

// ---------------------------------------------------------------------------
// Case text form
// ---------------------------------------------------------------------------

TEST(CheckCaseTest, FormatParseRoundTrip) {
  CheckCase c;
  c.r = Record{{"A", "v1", 0.5}, {"B", "v2", 1e-9}};
  c.p = Record{{"A", "v1"}, {"C", "v3"}};
  ASSERT_TRUE(c.wm.SetWeight("A", 2.5).ok());
  auto round = Canonicalize(c);
  ASSERT_TRUE(round.ok()) << round.status().message();
  EXPECT_EQ(FormatCase(*round), FormatCase(c));
}

// Canonicalize must be the identity, not merely idempotent: the text form
// is how cases cross the wire and land in the corpus, so a lossy rendering
// would make bit-identical cross-path comparison unsound. The tiny
// confidence here is exactly the value the old 4-decimal rendering lost.
TEST(CheckCaseTest, TinyConfidenceSurvivesTextForm) {
  CheckCase c;
  c.r = Record{{"A", "v1", 1e-9}};
  c.p = Record{{"A", "v1"}};
  auto round = Canonicalize(c);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->r.attributes()[0].confidence, 1e-9);
}

TEST(CheckCaseTest, ParseRejectsUnknownPrefix) {
  EXPECT_FALSE(ParseCase("r: {}\np: {}\nq: huh\n", "t").ok());
}

TEST(CheckCaseTest, ParseRequiresBothRecords) {
  EXPECT_FALSE(ParseCase("r: {<A, v1, 0.5>}\n", "t").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTripIsExact) {
  for (double v : {0.1, 1e-9, 1.0 - 1e-7, 0.33333333333333331, 1e300,
                   5e-324, 0.0, 1.0, 123456.789}) {
    const std::string text = FormatDoubleRoundTrip(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

// ---------------------------------------------------------------------------
// Generator determinism
// ---------------------------------------------------------------------------

TEST(CaseGeneratorTest, SameSeedSameSequence) {
  CaseGenerator a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(FormatCase(a.Next()), FormatCase(b.Next())) << "case " << i;
  }
}

TEST(CaseGeneratorTest, DifferentSeedsDiverge) {
  CaseGenerator a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (FormatCase(a.Next()) != FormatCase(b.Next())) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(CaseGeneratorTest, CaseSeedIsDeterministicAndSpread) {
  EXPECT_EQ(CaseGenerator::CaseSeed(1, 0), CaseGenerator::CaseSeed(1, 0));
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(CaseGenerator::CaseSeed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // the SplitMix64 finalizer never collides
}

// Every generated case must survive its own text form — the generator is
// not allowed to produce cases the corpus could not hold.
TEST(CaseGeneratorTest, GeneratedCasesCanonicalize) {
  CaseGenerator gen(7);
  for (int i = 0; i < 500; ++i) {
    const CheckCase c = gen.Next();
    auto round = Canonicalize(c);
    ASSERT_TRUE(round.ok()) << c.name << ": " << round.status().message();
    EXPECT_EQ(FormatCase(*round), FormatCase(c)) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Engine agreement properties (the ctest face of `infoleak selfcheck`)
// ---------------------------------------------------------------------------

// Exact (Algorithm 1) and naive (possible worlds) are independent
// derivations of the same expectation; under uniform weights on enumerable
// records they must agree to accumulated rounding.
TEST(SelfCheckPropertyTest, ExactMatchesNaiveUnderUniformWeights) {
  NaiveLeakage naive;
  ExactLeakage exact;
  CaseGenerator gen(11);
  WeightModel unit;
  int compared = 0;
  for (int i = 0; i < 300; ++i) {
    const CheckCase c = gen.Next();
    if (c.r.size() > 12) continue;
    const auto n = naive.RecordLeakage(c.r, c.p, unit);
    const auto e = exact.RecordLeakage(c.r, c.p, unit);
    ASSERT_TRUE(n.ok()) << c.name;
    ASSERT_TRUE(e.ok()) << c.name;
    EXPECT_NEAR(*n, *e, 1e-12) << c.name;
    ++compared;
  }
  EXPECT_GT(compared, 100);
}

// |approx − truth| must stay within the computable §5.2 error bound, with
// a hair of slack for the comparison baseline's own rounding.
TEST(SelfCheckPropertyTest, ApproxStaysWithinItsErrorBound) {
  NaiveLeakage naive;
  ApproxLeakage approx1(1), approx2(2);
  CaseGenerator gen(13);
  for (int i = 0; i < 300; ++i) {
    const CheckCase c = gen.Next();
    if (c.r.size() > 12) continue;
    const auto truth = naive.RecordLeakage(c.r, c.p, c.wm);
    if (!truth.ok()) continue;  // degenerate weights: no defined truth
    const auto a1 = approx1.RecordLeakage(c.r, c.p, c.wm);
    const auto a2 = approx2.RecordLeakage(c.r, c.p, c.wm);
    ASSERT_TRUE(a1.ok()) << c.name;
    ASSERT_TRUE(a2.ok()) << c.name;
    const double b1 = ApproxLeakageErrorBound(c.r, c.p, c.wm, 1);
    const double b2 = ApproxLeakageErrorBound(c.r, c.p, c.wm, 2);
    EXPECT_LE(std::abs(*a1 - *truth), b1 + 1e-9) << c.name;
    EXPECT_LE(std::abs(*a2 - *truth), b2 + 1e-9) << c.name;
  }
}

// The Record entry point and the engine's view body over a caller-filled
// one-record view must agree bit-for-bit — not approximately — on every
// engine.
TEST(SelfCheckPropertyTest, PreparedPathIsBitIdentical) {
  NaiveLeakage naive(12);  // over-cap records must fail identically too
  ExactLeakage exact;
  ApproxLeakage approx;
  CaseGenerator gen(17);
  WeightModel unit;
  for (int i = 0; i < 200; ++i) {
    const CheckCase c = gen.Next();
    PreparedReference ref(c.p, c.wm);
    PreparedRecord pr(c.r, ref);
    LeakageWorkspace ws;
    for (const LeakageEngine* engine :
         {static_cast<const LeakageEngine*>(&naive),
          static_cast<const LeakageEngine*>(&exact),
          static_cast<const LeakageEngine*>(&approx)}) {
      const auto via_string = engine->RecordLeakage(c.r, c.p, c.wm);
      const auto via_prepared =
          engine->RecordLeakageColumnar(pr.view(), ref, &ws);
      ASSERT_EQ(via_string.ok(), via_prepared.ok())
          << engine->name() << " " << c.name;
      if (via_string.ok()) {
        EXPECT_EQ(*via_string, *via_prepared)
            << engine->name() << " " << c.name;
      }
    }
  }
}

// The selfcheck-found regression: a uniform weight of exactly 0 must not
// let Algorithm 1 cancel it into an unweighted F1. Both engines agree the
// leakage is 0 (every world's weighted F1 is 0/0 → the per-world
// convention's 0).
TEST(SelfCheckPropertyTest, ZeroUniformWeightLeaksNothing) {
  Record r{{"B", "v5", 0.5}};
  Record p{{"B", "v5"}};
  WeightModel wm;
  ASSERT_TRUE(wm.SetWeight("B", 0.0).ok());
  NaiveLeakage naive;
  ExactLeakage exact;
  const auto n = naive.RecordLeakage(r, p, wm);
  const auto e = exact.RecordLeakage(r, p, wm);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*n, 0.0);
  EXPECT_EQ(*e, 0.0);
  const auto np = naive.ExpectedPrecision(r, p, wm);
  const auto ep = exact.ExpectedPrecision(r, p, wm);
  ASSERT_TRUE(np.ok());
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(*np, 0.0);
  EXPECT_EQ(*ep, 0.0);
}

// Engine outputs are probabilities: [0, 1] always, even for the
// weight/confidence extremes the generator is biased toward.
TEST(SelfCheckPropertyTest, EveryEngineValueStaysInUnitInterval) {
  NaiveLeakage naive(12);  // cap enumeration; big records still hit the rest
  ExactLeakage exact;
  ApproxLeakage approx;
  AutoLeakage autoe;
  CaseGenerator gen(19);
  for (int i = 0; i < 500; ++i) {
    const CheckCase c = gen.Next();
    for (const LeakageEngine* engine :
         {static_cast<const LeakageEngine*>(&naive),
          static_cast<const LeakageEngine*>(&exact),
          static_cast<const LeakageEngine*>(&approx),
          static_cast<const LeakageEngine*>(&autoe)}) {
      const auto v = engine->RecordLeakage(c.r, c.p, c.wm);
      if (!v.ok()) continue;
      EXPECT_GE(*v, 0.0) << engine->name() << " " << c.name;
      EXPECT_LE(*v, 1.0) << engine->name() << " " << c.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle + shrinker
// ---------------------------------------------------------------------------

TEST(OracleTest, CleanOnGeneratedCases) {
  Oracle oracle;
  CaseGenerator gen(23);
  std::size_t comparisons = 0;
  for (int i = 0; i < 200; ++i) {
    const CheckCase c = gen.Next();
    const OracleOutcome o =
        oracle.Evaluate(c, CaseGenerator::CaseSeed(23, i));
    for (const Finding& f : o.findings) {
      ADD_FAILURE() << f.kind << " on " << c.name << ": " << f.detail;
    }
    comparisons += o.comparisons;
  }
  EXPECT_GT(comparisons, 200u);
}

// The shrinker must strip everything irrelevant to the predicate and keep
// the failure. Predicate: "r contains an attribute with label D".
TEST(ShrinkTest, RemovesIrrelevantStructure) {
  CheckCase fat;
  fat.r = Record{{"A", "v1", 0.25},
                 {"B", "v2", 0.5},
                 {"C", "v3", 0.75},
                 {"D", "v4", 0.125}};
  fat.p = Record{{"A", "v1"}, {"B", "v2"}};
  ASSERT_TRUE(fat.wm.SetWeight("A", 3.0).ok());
  fat.name = "fat";
  auto has_d = [](const CheckCase& c) {
    for (const auto& a : c.r) {
      if (a.label == "D") return true;
    }
    return false;
  };
  const CheckCase slim = Shrink(fat, has_d);
  EXPECT_TRUE(has_d(slim));
  EXPECT_EQ(slim.r.size(), 1u);
  EXPECT_EQ(slim.p.size(), 0u);
  EXPECT_TRUE(slim.wm.explicit_weights().empty());
  EXPECT_EQ(slim.name, "fat/shrunk");
}

TEST(ShrinkTest, SimplifiesConfidencesTowardOne) {
  CheckCase c;
  c.r = Record{{"A", "v1", 0.1234567}};
  c.p = Record{{"A", "v1"}};
  c.name = "conf";
  auto has_a = [](const CheckCase& cand) { return cand.r.size() == 1; };
  const CheckCase slim = Shrink(c, has_a);
  EXPECT_EQ(slim.r.attributes()[0].confidence, 1.0);
}

TEST(ShrinkTest, IsDeterministic) {
  CaseGenerator gen(29);
  const CheckCase c = gen.Next();
  auto nonempty = [](const CheckCase& cand) { return !cand.r.empty(); };
  EXPECT_EQ(FormatCase(Shrink(c, nonempty)), FormatCase(Shrink(c, nonempty)));
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

// Every checked-in regression must replay clean: each *.case file encodes
// a bug this repo fixed, and a reappearance is a regression, not noise.
TEST(CorpusTest, CheckedInCorpusReplaysClean) {
  auto corpus = LoadCorpus(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().message();
  ASSERT_GE(corpus->size(), 4u) << "corpus missing from " << kCorpusDir;
  Oracle oracle;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    auto c = Canonicalize((*corpus)[i]);
    ASSERT_TRUE(c.ok()) << (*corpus)[i].name;
    const OracleOutcome o =
        oracle.Evaluate(*c, CaseGenerator::CaseSeed(1, 4096 + i));
    for (const Finding& f : o.findings) {
      ADD_FAILURE() << c->name << " regressed [" << f.kind
                    << "]: " << f.detail;
    }
  }
}

// The corpus replay above exercises the bank implicitly (the oracle's
// cross-entry property is on by default); this pins it explicitly: every
// checked-in case, pushed through a ColumnBank, must reproduce a
// caller-filled one-record view bit for bit on every engine.
TEST(CorpusTest, CheckedInCorpusReplaysThroughColumnar) {
  auto corpus = LoadCorpus(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().message();
  ASSERT_GE(corpus->size(), 4u) << "corpus missing from " << kCorpusDir;
  NaiveLeakage naive(16);
  ExactLeakage exact;
  ApproxLeakage approx;
  AutoLeakage autoe;
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    auto c = Canonicalize((*corpus)[i]);
    ASSERT_TRUE(c.ok()) << (*corpus)[i].name;
    const PreparedReference ref(c->p, c->wm);
    PreparedRecord pr(c->r, ref);
    ColumnBank bank(ref);
    bank.Append(c->r);
    const ColumnRecordView v = bank.view(0);
    LeakageWorkspace ws, cws;
    for (const LeakageEngine* engine :
         {static_cast<const LeakageEngine*>(&naive),
          static_cast<const LeakageEngine*>(&exact),
          static_cast<const LeakageEngine*>(&approx),
          static_cast<const LeakageEngine*>(&autoe)}) {
      const auto lp = engine->RecordLeakageColumnar(pr.view(), ref, &ws);
      const auto lc = engine->RecordLeakageColumnar(v, ref, &cws);
      ASSERT_EQ(lp.ok(), lc.ok()) << engine->name() << " " << c->name;
      if (lp.ok()) {
        EXPECT_EQ(*lp, *lc) << engine->name() << " " << c->name;
      }
      const auto rp = engine->ExpectedRecallColumnar(pr.view(), ref, &ws);
      const auto rc = engine->ExpectedRecallColumnar(v, ref, &cws);
      ASSERT_EQ(rp.ok(), rc.ok()) << engine->name() << " " << c->name;
      if (rp.ok()) {
        EXPECT_EQ(*rp, *rc) << engine->name() << " " << c->name;
      }
    }
  }
}

TEST(CorpusTest, MissingDirectoryIsEmptyCorpus) {
  auto corpus = LoadCorpus(INFOLEAK_SOURCE_DIR "/tests/corpus/no-such-dir");
  ASSERT_TRUE(corpus.ok());
  EXPECT_TRUE(corpus->empty());
}

// ---------------------------------------------------------------------------
// Full harness, offline engines only (served/durable paths have their own
// integration coverage through the CLI smoke in scripts/ci.sh)
// ---------------------------------------------------------------------------

TEST(SelfCheckRunTest, OfflineHarnessRunsClean) {
  SelfCheckConfig config;
  config.cases = 150;
  config.seed = 31;
  config.check_served = false;
  config.check_durable = false;
  auto report = RunSelfCheck(config);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->generated_cases, 150u);
  for (const Finding& f : report->findings) {
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail << "\n"
                  << FormatCase(f.c);
  }
  EXPECT_TRUE(report->clean());
  EXPECT_NE(report->Summary().find("0 disagreement(s)"), std::string::npos);
}

// The frontier prices a handful of small registries exactly as the
// reference path does, under every measure.
TEST(FrontierCheckTest, FrontierMatchesReferencePath) {
  std::size_t comparisons = 0;
  std::vector<Finding> findings;
  CheckFrontier(/*seed=*/11, /*cases=*/6, &comparisons, &findings);
  EXPECT_GT(comparisons, 6u * 5u);
  for (const Finding& f : findings) {
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail;
  }
}

TEST(SelfCheckRunTest, ServedAndDurablePathsAgree) {
  SelfCheckConfig config;
  config.cases = 40;
  config.seed = 37;
  auto report = RunSelfCheck(config);
  ASSERT_TRUE(report.ok()) << report.status().message();
  for (const Finding& f : report->findings) {
    ADD_FAILURE() << "[" << f.kind << "] " << f.detail << "\n"
                  << FormatCase(f.c);
  }
  EXPECT_TRUE(report->clean());
}

}  // namespace
}  // namespace infoleak::check
