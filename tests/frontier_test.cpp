#include "apps/frontier.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/commands.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/service.h"
#include "store/record_store.h"
#include "util/file.h"

#ifndef INFOLEAK_SOURCE_DIR
#define INFOLEAK_SOURCE_DIR "."
#endif

namespace infoleak {
namespace {

constexpr char kGoldenDir[] = INFOLEAK_SOURCE_DIR "/tests/golden/frontier";

FrontierConfig SmokeConfig() {
  FrontierConfig config;
  config.registry.seed = 1;
  config.registry.rows = 40;
  config.grid.ks = {2, 5, 10};
  return config;
}

std::string RenderLines(const FrontierResult& result,
                        const FrontierConfig& config) {
  std::string out;
  for (const FrontierPoint& point : result.points) {
    out += FrontierPointLine(point, config);
    out += '\n';
  }
  return out;
}

TEST(FrontierTest, SameSeedAndGridYieldByteIdenticalNdjson) {
  FrontierConfig config = SmokeConfig();
  config.grid.suppressions = {0, 4};
  auto first = RunFrontier(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunFrontier(config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(RenderLines(*first, config), RenderLines(*second, config));
}

TEST(FrontierTest, WorkerPoolNeverChangesBytes) {
  FrontierConfig serial = SmokeConfig();
  auto one = RunFrontier(serial);
  ASSERT_TRUE(one.ok());
  FrontierConfig pooled = SmokeConfig();
  pooled.num_threads = 4;
  auto four = RunFrontier(pooled);
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(RenderLines(*one, serial), RenderLines(*four, pooled));
}

TEST(FrontierTest, WorstLeakageIsNonIncreasingInK) {
  FrontierConfig config = SmokeConfig();
  auto result = RunFrontier(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->points.size(), 3u);
  double previous = 1.0;
  for (const FrontierPoint& point : result->points) {
    ASSERT_TRUE(point.found) << "k=" << point.k;
    EXPECT_LE(point.worst_leakage, previous + 1e-12) << "k=" << point.k;
    previous = point.worst_leakage;
  }
}

TEST(FrontierTest, GridOrderIsKThenLThenTThenSuppression) {
  FrontierConfig config = SmokeConfig();
  config.grid.ks = {2, 5};
  config.grid.ls = {1, 2};
  config.grid.suppressions = {0, 2};
  auto result = RunFrontier(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->points.size(), 8u);
  EXPECT_EQ(result->points[0].k, 2u);
  EXPECT_EQ(result->points[0].l, 1u);
  EXPECT_EQ(result->points[0].max_suppressed, 0u);
  EXPECT_EQ(result->points[1].max_suppressed, 2u);
  EXPECT_EQ(result->points[2].l, 2u);
  EXPECT_EQ(result->points[4].k, 5u);
}

TEST(FrontierTest, TighterMechanismsNeverImproveUtility) {
  // Adding l-diversity on top of the same k can only climb the lattice:
  // Prec must not rise.
  FrontierConfig config = SmokeConfig();
  config.grid.ks = {2};
  config.grid.ls = {1, 3};
  auto result = RunFrontier(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->points.size(), 2u);
  ASSERT_TRUE(result->points[0].found);
  ASSERT_TRUE(result->points[1].found);
  EXPECT_LE(result->points[1].prec, result->points[0].prec + 1e-12);
  EXPECT_GE(result->points[1].height, result->points[0].height);
}

TEST(FrontierTest, EmptyGridAxisIsInvalid) {
  FrontierConfig config = SmokeConfig();
  config.grid.ks = {};
  EXPECT_TRUE(RunFrontier(config).status().IsInvalidArgument());
  config = SmokeConfig();
  config.grid.ts = {1.5};
  EXPECT_TRUE(RunFrontier(config).status().IsInvalidArgument());
}

TEST(FrontierTest, PhaseAccountingIsCharged) {
  FrontierConfig config = SmokeConfig();
  config.grid.ks = {2};
  auto result = RunFrontier(config);
  ASSERT_TRUE(result.ok());
  const FrontierPoint& point = result->points[0];
  EXPECT_GT(point.anonymize_nanos, 0u);
  EXPECT_GT(point.resolve_nanos, 0u);
  EXPECT_GT(point.eval_nanos, 0u);
}

// tests/golden/frontier holds the NDJSON of
//   infoleak frontier --rows 200 --ks 2,5,10 --ls 1,2 --suppress 0,3
//     --seed S --measure M
// for two seeds and every measure, captured before the id-space aligner
// replaced the per-(person, entity) Record path. Any change to how a point
// is priced — alignment, bank layout, kernel variant — must keep these
// bytes.
TEST(FrontierTest, MatchesCheckedInGoldens) {
  for (const int seed : {1, 2}) {
    for (const char* name :
         {"expected-f1", "pml", "guesswork", "under", "over"}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      auto measure = ParseMeasure(name);
      ASSERT_TRUE(measure.ok());
      FrontierConfig config;
      config.registry.seed = static_cast<uint64_t>(seed);
      config.registry.rows = 200;
      config.grid.ks = {2, 5, 10};
      config.grid.ls = {1, 2};
      config.grid.suppressions = {0, 3};
      config.measure = *measure;
      config.num_threads = 2;
      auto result = RunFrontier(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto golden = ReadFileToString(std::string(kGoldenDir) + "/seed" +
                                     std::to_string(seed) + "_" + name +
                                     ".ndjson");
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      EXPECT_EQ(RenderLines(*result, config), *golden);
    }
  }
}

TEST(FrontierCliTest, HelpGoldenOutput) {
  constexpr const char* kGolden =
      "usage: infoleak frontier [flags]\n"
      "\n"
      "  sweep anonymization grids, charting leakage vs utility\n"
      "\n"
      "flags:\n"
      "  --seed          registry PRNG seed (default 1)\n"
      "  --rows          registry rows swept (default 60)\n"
      "  --zip-prefixes  distinct leading zip prefixes in the registry "
      "(default 6)\n"
      "  --diseases      sensitive-vocabulary size (default 5)\n"
      "  --ks            comma list of k values to sweep (default 2,5)\n"
      "  --ls            comma list of l-diversity values; 1 disables "
      "(default 1)\n"
      "  --ts            comma list of t-closeness values in [0,1]; 1 "
      "disables (default 1)\n"
      "  --suppress      comma list of suppression budgets (default 0)\n"
      "  --measure       leakage measure pricing each point: "
      "expected-f1|pml|guesswork|under|over\n"
      "  --threads       worker threads fanning grid points; 0 = hardware "
      "(default 1)\n"
      "  --phases        append '#' comment lines with per-point "
      "anonymize/resolve/eval phase micros\n"
      "\n"
      "observability riders (accepted by every command):\n"
      "  --stats         append a metrics report to the command output\n"
      "  --stats-format  metrics report format: prometheus|json\n"
      "  --trace         append a trace-span summary to the command "
      "output\n";
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"frontier", "--help"}, &out).ok());
  EXPECT_EQ(out, kGolden);
}

TEST(FrontierCliTest, UnknownFlagIsRejected) {
  std::string out;
  Status st = cli::Dispatch({"frontier", "--warp", "9"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--warp"), std::string::npos);
  EXPECT_NE(st.message().find("infoleak frontier --help"), std::string::npos);
}

TEST(FrontierCliTest, NdjsonIsDeterministicAcrossRuns) {
  const std::vector<std::string> args = {"frontier", "--rows", "30",
                                         "--ks",     "2,5",   "--seed", "7"};
  std::string first, second;
  ASSERT_TRUE(cli::Dispatch(args, &first).ok());
  ASSERT_TRUE(cli::Dispatch(args, &second).ok());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FrontierCliTest, BadListEntriesAreRejected) {
  std::string out;
  EXPECT_TRUE(cli::Dispatch({"frontier", "--ks", "2,x"}, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(cli::Dispatch({"frontier", "--ts", "0.5,oops"}, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(cli::Dispatch({"frontier", "--measure", "psychic"}, &out)
                  .IsInvalidArgument());
}

TEST(FrontierWireTest, ServedSweepMatchesTheLibrary) {
  svc::LeakageService service{RecordStore()};
  auto request = svc::ParseRequest(
      R"({"verb":"frontier","id":9,"rows":30,"ks":[2,5],"seed":1})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto response = svc::ParseJson(service.Handle(*request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->GetBool("ok", false));
  const svc::JsonValue* points = response->Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->items().size(), 2u);

  FrontierConfig config;
  config.registry.rows = 30;
  config.grid.ks = {2, 5};
  auto direct = RunFrontier(config);
  ASSERT_TRUE(direct.ok());
  for (std::size_t i = 0; i < 2; ++i) {
    const svc::JsonValue& point = points->items()[i];
    EXPECT_EQ(point.GetNumber("k", -1), static_cast<double>(config.grid.ks[i]));
    EXPECT_DOUBLE_EQ(point.GetNumber("worst_leakage", -1),
                     direct->points[i].worst_leakage);
    EXPECT_DOUBLE_EQ(point.GetNumber("prec", -1), direct->points[i].prec);
  }
}

TEST(FrontierWireTest, OversizedGridIsRefused) {
  svc::LeakageService service{RecordStore()};
  auto request = svc::ParseRequest(
      R"({"verb":"frontier","id":1,"rows":2000})");
  ASSERT_TRUE(request.ok());
  std::string wire_code;
  service.Handle(*request, {}, &wire_code);
  EXPECT_EQ(wire_code, "invalid_argument");
  request = svc::ParseRequest(
      R"({"verb":"frontier","id":2,"ks":[2,3,4,5,6,7,8,9,10],)"
      R"("suppress":[0,1,2,3,4,5,6,7,8]})");
  ASSERT_TRUE(request.ok());
  service.Handle(*request, {}, &wire_code);
  EXPECT_EQ(wire_code, "invalid_argument");
}

}  // namespace
}  // namespace infoleak
