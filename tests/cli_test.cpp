#include "cli/commands.h"

#include <gtest/gtest.h>

#include "cli/flags.h"
#include "core/kernels.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/file.h"
#include "util/string_util.h"

namespace infoleak {
namespace {

// ---------------------------------------------------------------------------
// FlagSet
// ---------------------------------------------------------------------------

TEST(FlagSetTest, ParsesSpaceAndEqualsForms) {
  auto flags = FlagSet::Parse({"--a", "1", "--b=2", "--c"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("a"), "1");
  EXPECT_EQ(flags->GetString("b"), "2");
  EXPECT_TRUE(flags->Has("c"));
  EXPECT_EQ(flags->GetString("c"), "true");
  EXPECT_FALSE(flags->Has("d"));
}

TEST(FlagSetTest, Positionals) {
  auto flags = FlagSet::Parse({"pos1", "--a", "1", "pos2"});
  ASSERT_TRUE(flags.ok());
  // "pos2" follows the consumed value of --a... check actual semantics:
  // --a consumes "1", so pos2 is positional.
  EXPECT_EQ(flags->positionals(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagSetTest, FlagBeforeFlagIsBoolean) {
  auto flags = FlagSet::Parse({"--verbose", "--n", "5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("verbose"), "true");
  EXPECT_EQ(flags->GetInt("n", 0).value(), 5);
}

TEST(FlagSetTest, NumericAccessors) {
  auto flags = FlagSet::Parse({"--x", "2.5", "--n", "7", "--bad", "abc"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("x", 0).value(), 2.5);
  EXPECT_EQ(flags->GetInt("n", 0).value(), 7);
  EXPECT_DOUBLE_EQ(flags->GetDouble("missing", 9.5).value(), 9.5);
  EXPECT_FALSE(flags->GetDouble("bad", 0).ok());
  EXPECT_FALSE(flags->GetInt("bad", 0).ok());
}

TEST(FlagSetTest, RepeatedFlagKeepsLast) {
  auto flags = FlagSet::Parse({"--a", "1", "--a", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("a"), "2");
}

TEST(FlagSetTest, BareDoubleDashRejected) {
  EXPECT_FALSE(FlagSet::Parse({"--"}).ok());
}

// ---------------------------------------------------------------------------
// Commands (driven through Dispatch, no processes spawned)
// ---------------------------------------------------------------------------

constexpr const char* kSection24Db =
    "record,label,value,confidence\n"
    "0,N,Alice,1\n0,P,123,1\n"
    "1,N,Alice,1\n1,C,999,1\n"
    "2,N,Bob,1\n2,P,987,1\n";

TEST(CliTest, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_TRUE(cli::Dispatch({"help"}, &out).ok());
  EXPECT_NE(out.find("usage"), std::string::npos);
  out.clear();
  EXPECT_TRUE(cli::Dispatch({}, &out).ok());
  out.clear();
  EXPECT_FALSE(cli::Dispatch({"frobnicate"}, &out).ok());
}

// Golden output for `infoleak serve --help`: the help text is generated
// from the same registry CheckFlags validates against, so this test pins
// both the rendering and the serve command's flag vocabulary.
TEST(CliTest, ServeHelpGoldenOutput) {
  constexpr const char* kGolden =
      "usage: infoleak serve [flags]\n"
      "\n"
      "  serve leakage queries over TCP (newline-delimited JSON)\n"
      "\n"
      "flags:\n"
      "  --host               bind address (default 127.0.0.1)\n"
      "  --port               TCP port; 0 picks an ephemeral port "
      "(default 0)\n"
      "  --workers            worker threads draining the request queue "
      "(default 4)\n"
      "  --queue-depth        bounded queue size; beyond it requests are "
      "shed with `overloaded` (default 128)\n"
      "  --deadline-ms        per-request deadline from admission; 0 "
      "disables (default 10000)\n"
      "  --idle-timeout-ms    close connections idle this long; 0 disables "
      "(default 30000)\n"
      "  --max-frame-bytes    largest accepted request line "
      "(default 1048576)\n"
      "  --cache-refs         prepared-reference cache capacity "
      "(default 64)\n"
      "  --db                 CSV database file preloaded into the store\n"
      "  --db-csv             inline CSV database text preloaded into the "
      "store\n"
      "  --data-dir           durable mode: recover the store from this "
      "directory and write-ahead-log every append\n"
      "  --fsync              WAL durability: always|interval|never "
      "(default always)\n"
      "  --fsync-interval-ms  background fsync cadence for --fsync interval "
      "(default 25)\n"
      "  --snapshot-every     background-snapshot every N appends; 0 "
      "disables (default 0)\n"
      "\n"
      "observability riders (accepted by every command):\n"
      "  --stats              append a metrics report to the command "
      "output\n"
      "  --stats-format       metrics report format: prometheus|json\n"
      "  --trace              append a timing summary to the command output\n";
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"serve", "--help"}, &out).ok());
  EXPECT_EQ(out, kGolden);
}

// The compact command's help golden: pins the offline-maintenance entry
// point introduced with the persistence subsystem.
TEST(CliTest, CompactHelpGoldenOutput) {
  constexpr const char* kGolden =
      "usage: infoleak compact [flags]\n"
      "\n"
      "  rewrite a durable store's snapshot and reset its WAL\n"
      "\n"
      "flags:\n"
      "  --data-dir      durable store directory to compact (required)\n"
      "\n"
      "observability riders (accepted by every command):\n"
      "  --stats         append a metrics report to the command output\n"
      "  --stats-format  metrics report format: prometheus|json\n"
      "  --trace         append a timing summary to the command output\n";
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"compact", "--help"}, &out).ok());
  EXPECT_EQ(out, kGolden);
}

// The selfcheck command's help golden: pins the differential harness's
// flag vocabulary alongside its registry entry.
TEST(CliTest, SelfCheckHelpGoldenOutput) {
  constexpr const char* kGolden =
      "usage: infoleak selfcheck [flags]\n"
      "\n"
      "  differential cross-engine check: fuzz, compare, shrink\n"
      "\n"
      "flags:\n"
      "  --cases            generated adversarial cases (default 1000)\n"
      "  --seed             deterministic run seed; a (seed, case) pair "
      "always reproduces (default 1)\n"
      "  --engines          comma list of checks to run: naive,exact,approx,"
      "mc,bounds,batch,auto,served,durable,inc (default all)\n"
      "  --measures         measure-family checks: all|none|comma list of "
      "pml,guesswork,overunder (default all)\n"
      "  --corpus           regression corpus directory: replay every *.case "
      "before generating, write new minimized findings back\n"
      "  --no-corpus-write  replay the corpus but do not add new entries\n"
      "  --naive-max        largest record the O(2^|r|) truth oracle "
      "enumerates (default 12)\n"
      "  --mc-samples       Monte-Carlo samples per estimate (default 4000)\n"
      "  --max-reported     findings minimized and reported in full; further "
      "ones are only counted (default 20)\n"
      "  --scratch-dir      durable-check scratch directory (default: under "
      "the system temp dir, removed afterwards)\n"
      "\n"
      "observability riders (accepted by every command):\n"
      "  --stats            append a metrics report to the command output\n"
      "  --stats-format     metrics report format: prometheus|json\n"
      "  --trace            append a timing summary to the command output\n";
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"selfcheck", "--help"}, &out).ok());
  EXPECT_EQ(out, kGolden);
}

// A small offline selfcheck run through the CLI: all engines must agree and
// the command must report the case/comparison totals.
TEST(CliTest, SelfCheckSmokeRunsClean) {
  std::string out;
  Status st = cli::Dispatch(
      {"selfcheck", "--cases", "40", "--seed", "7",
       "--engines", "naive,exact,approx,mc,bounds,batch,auto"},
      &out);
  ASSERT_TRUE(st.ok()) << st.message() << "\n" << out;
  EXPECT_NE(out.find("generated 40 case(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("0 disagreement(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("all engines and paths agree"), std::string::npos);
}

TEST(CliTest, SelfCheckRejectsUnknownEngine) {
  std::string out;
  Status st = cli::Dispatch({"selfcheck", "--engines", "warp"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'warp'"), std::string::npos);
}

TEST(CliTest, SelfCheckValidatesNaiveMax) {
  std::string out;
  Status st = cli::Dispatch({"selfcheck", "--naive-max", "30"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--naive-max"), std::string::npos);
}

TEST(CliTest, HelpCommandAndHelpFlagAgree) {
  for (const char* command :
       {"leakage", "er", "incremental", "generate", "anonymize", "frontier",
        "dipping", "enhance", "disinfo", "reidentify", "stats", "serve",
        "call", "tail", "top", "compact", "selfcheck"}) {
    std::string via_flag, via_help;
    ASSERT_TRUE(cli::Dispatch({command, "--help"}, &via_flag).ok());
    ASSERT_TRUE(cli::Dispatch({"help", command}, &via_help).ok());
    EXPECT_EQ(via_flag, via_help) << command;
    EXPECT_NE(via_flag.find("usage: infoleak " + std::string(command)),
              std::string::npos)
        << command;
    EXPECT_NE(via_flag.find("observability riders"), std::string::npos)
        << command;
  }
}

TEST(CliTest, UsageListsEveryCommand) {
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"help"}, &out).ok());
  for (const char* command :
       {"leakage", "er", "incremental", "generate", "anonymize", "frontier",
        "dipping", "enhance", "disinfo", "reidentify", "stats", "serve",
        "call", "tail", "top", "compact", "selfcheck"}) {
    EXPECT_NE(out.find(std::string("  ") + command + " "), std::string::npos)
        << command;
  }
}

TEST(CliTest, UnknownFlagErrorPointsAtCommandHelp) {
  std::string out;
  Status st = cli::Dispatch({"serve", "--warp-speed", "9"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--warp-speed"), std::string::npos);
  EXPECT_NE(st.message().find("infoleak serve --help"), std::string::npos);
}

TEST(CliTest, CallWithoutPortFails) {
  std::string out;
  Status st = cli::Dispatch({"call", "--verb", "ping"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--port"), std::string::npos);
}

TEST(CliTest, TailAndTopValidateFlagsBeforeConnecting) {
  std::string out;
  Status st = cli::Dispatch({"tail"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--port"), std::string::npos);

  st = cli::Dispatch({"tail", "--port", "1", "--count", "0"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--count"), std::string::npos);

  st = cli::Dispatch({"tail", "--port", "1", "--min-micros", "-3"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--min-micros"), std::string::npos);

  // --follow is a live recent-events stream; the slow ring is a snapshot.
  st = cli::Dispatch({"tail", "--port", "1", "--slow", "--follow"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--follow"), std::string::npos);

  st = cli::Dispatch({"top"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--port"), std::string::npos);

  st = cli::Dispatch({"top", "--port", "1", "--count", "5000"}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--count"), std::string::npos);
}

TEST(CliTest, LeakageCommandReproducesSection24) {
  std::string out;
  Status st = cli::Dispatch(
      {"leakage", "--db-csv", kSection24Db, "--reference-text",
       "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("set leakage L0(R, p) = 0.6666667"), std::string::npos)
      << out;
}

TEST(CliTest, LeakageWithResolutionRaisesToSixSevenths) {
  std::string out;
  Status st = cli::Dispatch(
      {"leakage", "--db-csv", kSection24Db, "--reference-text",
       "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}", "--resolve",
       "--match-rules", "N"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("3 records -> 2 entities"), std::string::npos) << out;
  EXPECT_NE(out.find("0.8571429"), std::string::npos) << out;
}

TEST(CliTest, LeakageSupportsFBeta) {
  std::string out;
  Status st = cli::Dispatch({"leakage", "--db-csv", kSection24Db,
                             "--reference-text", "{<N, Alice>, <P, 123>}",
                             "--beta", "2.0"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("F-beta leakage (beta=2)"), std::string::npos) << out;
}

TEST(CliTest, LeakageRejectsBadBeta) {
  // A non-positive or non-finite beta is an error naming the value, never a
  // silent beta = 1 answer.
  for (const char* beta : {"-2", "0", "nan", "inf"}) {
    std::string out;
    Status st = cli::Dispatch(
        {"leakage", "--db-csv", kSection24Db, "--reference-text",
         "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}", "--beta", beta},
        &out);
    EXPECT_TRUE(st.IsInvalidArgument()) << beta << ": " << st.ToString();
    EXPECT_NE(st.message().find(std::string("'") + beta + "'"),
              std::string::npos)
        << st.message();
    EXPECT_EQ(out.find("F-beta leakage"), std::string::npos) << out;
  }
}

TEST(CliTest, LeakageValidatesEngine) {
  std::string out;
  Status st = cli::Dispatch({"leakage", "--db-csv", kSection24Db,
                             "--reference-text", "{<N, Alice>}", "--engine",
                             "quantum"},
                            &out);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(CliTest, ErCommandMergesAndReportsStats) {
  std::string out;
  Status st = cli::Dispatch(
      {"er", "--db-csv", kSection24Db, "--match-rules", "N", "--resolver",
       "transitive"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("records: 3 -> entities: 2"), std::string::npos) << out;
  EXPECT_NE(out.find("match calls: 3"), std::string::npos) << out;
}

TEST(CliTest, ErSupportsBlockedResolver) {
  std::string out;
  Status st = cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--resolver", "blocked"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("records: 3 -> entities: 2"), std::string::npos) << out;
}

TEST(CliTest, IncrementalCommandReproducesSection41) {
  const char* store_db =
      "record,label,value,confidence\n"
      "0,N,n1,1\n0,C,c1,1\n0,P,p1,1\n"
      "1,N,n1,1\n1,C,c2,1\n";
  std::string out;
  Status st = cli::Dispatch(
      {"incremental", "--db-csv", store_db, "--reference-text",
       "{<N, n1>, <C, c1>, <C, c2>, <P, p1>, <A, a1>}", "--release-text",
       "{<N, n1>, <C, c2>, <P, p1>}", "--match-rules", "N+C|N+P"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("before:      0.75"), std::string::npos) << out;
  EXPECT_NE(out.find("incremental: 0.1388889"), std::string::npos) << out;
}

TEST(CliTest, GenerateEmitsLoadableCsv) {
  std::string out;
  Status st = cli::Dispatch({"generate", "--n", "5", "--records", "3",
                             "--seed", "99", "--emit-reference"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("# reference:"), std::string::npos);
  EXPECT_NE(out.find("record,label,value,confidence"), std::string::npos);
}

TEST(CliTest, GenerateIsDeterministic) {
  std::string a;
  std::string b;
  ASSERT_TRUE(cli::Dispatch({"generate", "--n", "5", "--records", "3",
                             "--seed", "5"},
                            &a)
                  .ok());
  ASSERT_TRUE(cli::Dispatch({"generate", "--n", "5", "--records", "3",
                             "--seed", "5"},
                            &b)
                  .ok());
  EXPECT_EQ(a, b);
}

TEST(CliTest, GenerateValidatesNumbers) {
  std::string out;
  EXPECT_FALSE(cli::Dispatch({"generate", "--n", "0"}, &out).ok());
  EXPECT_FALSE(cli::Dispatch({"generate", "--pc", "1.5"}, &out).ok());
}

TEST(CliTest, AnonymizeCommand) {
  const char* table =
      "Zip,Age,Disease\n"
      "111,30,Heart\n112,31,Breast\n115,33,Cancer\n"
      "222,50,Hair\n299,70,Flu\n241,60,Flu\n";
  std::string out;
  Status st = cli::Dispatch(
      {"anonymize", "--table-csv", table, "--qi",
       "Zip:suffix:3,Age:interval:50", "--k", "3", "--sensitive", "Disease"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("3-anonymous generalization"), std::string::npos) << out;
  EXPECT_NE(out.find("distinct l-diversity of 'Disease'"), std::string::npos);
}

TEST(CliTest, AnonymizeValidatesQiSpec) {
  std::string out;
  EXPECT_FALSE(cli::Dispatch({"anonymize", "--table-csv", "A\nx\n", "--qi",
                              "A:magic:3", "--k", "1"},
                             &out)
                   .ok());
  EXPECT_FALSE(cli::Dispatch({"anonymize", "--table-csv", "A\nx\n", "--k",
                              "1"},
                             &out)
                   .ok());
  // Each number must be a whole integer in range, and the error names the
  // entry: a trailing letter used to be dropped, and an unparsable clamp
  // read as 0 (every Age became ">=0").
  const std::string table = "Zip,Age\n12345,31\n12399,37\n";
  for (const char* spec :
       {"Zip:suffix:4x,Age:interval:10", "Zip:suffix:4,Age:interval:10abc",
        "Zip:suffix:4,Age:interval:10:zz", "Zip:suffix:0",
        "Age:interval:0", "Age:interval:10:-1", "Zip:suffix:4:9",
        "Age:interval:10:50:7"}) {
    Status st = cli::Dispatch(
        {"anonymize", "--table-csv", table, "--qi", spec, "--k", "1"}, &out);
    EXPECT_TRUE(st.IsInvalidArgument()) << spec << ": " << st.ToString();
    EXPECT_NE(st.message().find("--qi entry"), std::string::npos) << spec;
  }
  EXPECT_TRUE(cli::Dispatch({"anonymize", "--table-csv", table, "--qi",
                             "Zip:suffix:4,Age:interval:10:0", "--k", "1"},
                            &out)
                  .ok());
}

TEST(CliTest, DippingCommandBuildsDossier) {
  std::string out;
  Status st = cli::Dispatch({"dipping", "--db-csv", kSection24Db,
                             "--query-text", "{<N, Alice>}", "--match-rules",
                             "N"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("<C, 999>"), std::string::npos) << out;
  EXPECT_NE(out.find("<P, 123>"), std::string::npos) << out;
  EXPECT_EQ(out.find("Bob"), std::string::npos) << out;
}

TEST(CliTest, DippingRequiresQuery) {
  std::string out;
  Status st = cli::Dispatch(
      {"dipping", "--db-csv", kSection24Db, "--match-rules", "N"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(CliTest, EnhanceCommandRanksVerifications) {
  // The §4.3 example through the CLI: phone first (ratio 1/7), name last.
  const char* facts_db =
      "record,label,value,confidence\n"
      "0,N,Alice,1\n0,A,20,1\n"
      "1,N,Alice,0.9\n1,P,123,0.5\n1,C,987,1\n";
  std::string out;
  Status st = cli::Dispatch({"enhance", "--db-csv", facts_db}, &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("certainty L(rc, rp) = 0.9285714"), std::string::npos)
      << out;
  std::size_t phone = out.find("verify <P, 123, 0.5>");
  std::size_t name = out.find("verify <N, Alice, 0.9>");
  ASSERT_NE(phone, std::string::npos);
  ASSERT_NE(name, std::string::npos);
  EXPECT_LT(phone, name);  // better ratio ranks first
}

TEST(CliTest, EnhanceWithBudgetRunsGreedyPlan) {
  const char* facts_db =
      "record,label,value,confidence\n"
      "0,N,Alice,1\n"
      "1,P,123,0.5\n1,N,Alice,1\n";
  std::string out;
  Status st = cli::Dispatch({"enhance", "--db-csv", facts_db, "--budget",
                             "1.0"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("greedy plan"), std::string::npos) << out;
  EXPECT_NE(out.find("verify <P, 123, 0.5>"), std::string::npos) << out;
}

TEST(CliTest, DisinfoCommandLowersLeakage) {
  const char* leaked_db =
      "record,label,value,confidence\n"
      "0,N,alice,1\n0,P,123,1\n"
      "1,N,alice,1\n1,C,999,1\n"
      "2,N,bob,1\n2,K,k1,1\n";
  std::string out;
  Status st = cli::Dispatch(
      {"disinfo", "--db-csv", leaked_db, "--reference-text",
       "{<N, alice>, <P, 123>, <C, 999>, <Z, 94305>}", "--match-rules",
       "N|P|K", "--budget", "8"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("candidates:"), std::string::npos) << out;
  EXPECT_NE(out.find("publish ["), std::string::npos) << out;
  // "leakage: X -> Y" with Y < X; just check the arrow rendered and a
  // record was published.
  EXPECT_NE(out.find("leakage: "), std::string::npos) << out;
}

TEST(CliTest, DisinfoExhaustiveMode) {
  const char* leaked_db =
      "record,label,value,confidence\n"
      "0,N,alice,1\n0,P,123,1\n";
  std::string out;
  Status st = cli::Dispatch(
      {"disinfo", "--db-csv", leaked_db, "--reference-text",
       "{<N, alice>, <P, 123>, <C, 999>}", "--match-rules", "N|P",
       "--budget", "6", "--exhaustive"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(CliTest, ReidentifyCommand) {
  std::string out;
  Status st = cli::Dispatch(
      {"reidentify", "--db-csv",
       "0,N,alice,1\n0,P,123,1\n1,N,bob,1\n2,X,junk,1\n",
       "--references-text",
       "{<N, alice>, <P, 123>}\n{<N, bob>, <Z, 9>}"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("record 0 -> person 0"), std::string::npos) << out;
  EXPECT_NE(out.find("record 1 -> person 1"), std::string::npos) << out;
  EXPECT_NE(out.find("record 2 -> (unattributed)"), std::string::npos);
  EXPECT_NE(out.find("attributed: 2/3"), std::string::npos);
}

TEST(CliTest, ReidentifyRequiresReferences) {
  std::string out;
  EXPECT_TRUE(cli::Dispatch({"reidentify", "--db-csv", "0,N,a,1\n"}, &out)
                  .IsInvalidArgument());
  EXPECT_FALSE(cli::Dispatch({"reidentify", "--db-csv", "0,N,a,1\n",
                              "--references-text", "  "},
                             &out)
                   .ok());
}

TEST(CliTest, LeakageBoundsFlag) {
  std::string out;
  Status st = cli::Dispatch({"leakage", "--db-csv", kSection24Db,
                             "--reference-text",
                             "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}",
                             "--bounds"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find(" in ["), std::string::npos) << out;
}

TEST(CliTest, AnonymizeReportsTCloseness) {
  const char* table =
      "Zip,Age,Disease\n"
      "111,30,Heart\n112,31,Breast\n115,33,Cancer\n"
      "222,50,Hair\n299,70,Flu\n241,60,Flu\n";
  std::string out;
  Status st = cli::Dispatch(
      {"anonymize", "--table-csv", table, "--qi",
       "Zip:suffix:3,Age:interval:50", "--k", "3", "--sensitive", "Disease"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("t-closeness (max TV distance): 0.5"),
            std::string::npos)
      << out;
}

TEST(CliTest, MissingDbIsInvalidArgument) {
  std::string out;
  Status st = cli::Dispatch(
      {"leakage", "--reference-text", "{<N, Alice>}"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Observability: --stats riders and the stats command. Each golden resets
// the registry first; the rider rendering skips zero series and histograms,
// so the report is an exact function of the dispatched workload.
// ---------------------------------------------------------------------------

/// The report section appended after `marker`, or "" if absent.
std::string SectionAfter(const std::string& out, const std::string& marker) {
  std::size_t pos = out.find(marker);
  return pos == std::string::npos ? "" : out.substr(pos + marker.size());
}

/// Every stats render carries the build-info gauge (value 1, identity in
/// the labels); the goldens parametrize on the build like they do for the
/// kernel variant.
std::string BuildInfoPromGolden() {
  return "# HELP infoleak_build_info Build identity (value is always 1; "
         "the info lives in the labels)\n"
         "# TYPE infoleak_build_info gauge\n"
         "infoleak_build_info{simd=\"" +
         std::string(kern::Active().name) + "\",version=\"" +
         std::string(obs::BuildVersion()) + "\"} 1\n";
}

std::string BuildInfoJsonGolden() {
  return "{\"name\":\"infoleak_build_info\",\"labels\":{\"simd\":\"" +
         std::string(kern::Active().name) + "\",\"version\":\"" +
         std::string(obs::BuildVersion()) + "\"},\"value\":1}";
}

// ---------------------------------------------------------------------------
// Leakage goldens on a generated dataset
// ---------------------------------------------------------------------------

// tests/golden/leakage holds the output of every engine and measure,
// reidentify and enhance on `generate --n 8 --records 200 --seed 3 --m 0.9
// --emit-reference`. The dataset is regenerated from the seed here and
// every output must match byte for byte, so a change that moves any value
// on records of up to 16 attributes fails, not just one on the 3-record
// §2.4 example. Enhance runs on records 0 and 1 only: the composite of all
// 200 records exceeds the naive engine's 25-attribute cap.
TEST(CliGoldenTest, LeakageReidentifyEnhanceMatchCapturedOutput) {
  std::string gen;
  ASSERT_TRUE(cli::Dispatch({"generate", "--n", "8", "--records", "200",
                             "--seed", "3", "--m", "0.9", "--emit-reference"},
                            &gen)
                  .ok());
  std::string reference;
  std::string first_two;  // records 0 and 1, comment and header lines kept
  for (const auto& line : Split(gen, '\n')) {
    constexpr std::string_view kRef = "# reference: ";
    if (line.substr(0, kRef.size()) == kRef) {
      reference = std::string(line.substr(kRef.size()));
    }
    if (line.empty()) continue;
    if (line[0] == '#' || line.substr(0, 7) == "record," ||
        line.substr(0, 2) == "0," || line.substr(0, 2) == "1,") {
      first_two += std::string(line) + "\n";
    }
  }
  ASSERT_FALSE(reference.empty());

  struct Run {
    std::string golden;
    std::vector<std::string> args;
  };
  const std::vector<std::string> leak = {"leakage", "--db-csv", gen,
                                         "--reference-text", reference,
                                         "--bounds"};
  std::vector<Run> runs;
  for (const char* e : {"auto", "naive", "exact", "approx"}) {
    Run run{std::string("unit_") + e + ".txt", leak};
    run.args.insert(run.args.end(), {"--engine", e});
    runs.push_back(std::move(run));
  }
  for (const char* e : {"auto", "naive", "approx"}) {
    Run run{std::string("skewed_") + e + ".txt", leak};
    run.args.insert(run.args.end(),
                    {"--engine", e, "--weights", "L0=2,L3=0.5"});
    runs.push_back(std::move(run));
  }
  for (const char* m : {"pml", "guesswork", "under", "over"}) {
    Run run{std::string("skewed_") + m + ".txt", leak};
    run.args.insert(run.args.end(),
                    {"--measure", m, "--weights", "L0=2,L3=0.5"});
    runs.push_back(std::move(run));
  }
  runs.push_back({"reidentify.txt",
                  {"reidentify", "--db-csv", gen, "--references-text",
                   reference}});
  runs.push_back({"enhance.txt", {"enhance", "--db-csv", first_two}});

  for (const Run& run : runs) {
    std::string out;
    const Status st = cli::Dispatch(run.args, &out);
    ASSERT_TRUE(st.ok()) << run.golden << ": " << st.ToString();
    auto golden = ReadFileToString(
        INFOLEAK_SOURCE_DIR "/tests/golden/leakage/" + run.golden);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    EXPECT_EQ(out, *golden) << run.golden;
  }
}

TEST(CliStatsTest, LeakageStatsPrometheusGolden) {
  obs::MetricsRegistry::Global().ResetAll();
  std::string out;
  Status st = cli::Dispatch(
      {"leakage", "--db-csv", kSection24Db, "--reference-text",
       "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}", "--engine", "exact",
       "--stats"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // 3 records filled into one bank and scored once: the per-record report's
  // running maximum is the set leakage.
  const std::string expected =
      "# HELP infoleak_cli_commands_total CLI commands dispatched\n"
      "# TYPE infoleak_cli_commands_total counter\n"
      "infoleak_cli_commands_total{command=\"leakage\"} 1\n"
      "# HELP infoleak_column_bank_appends_total Records appended to a "
      "ColumnBank (cell resolution paid once here instead of once per "
      "scan)\n"
      "# TYPE infoleak_column_bank_appends_total counter\n"
      "infoleak_column_bank_appends_total 3\n"
      "# HELP infoleak_column_bank_builds_total ColumnBank constructions: "
      "one per leakage index, one per (point, alignment class) of a frontier "
      "sweep, one per offline bank build\n"
      "# TYPE infoleak_column_bank_builds_total counter\n"
      "infoleak_column_bank_builds_total 1\n"
      "# HELP infoleak_kernel_dispatch_total Array-kernel invocations by "
      "dispatched variant (scalar / avx2 / avx512; forced scalar via "
      "INFOLEAK_FORCE_SCALAR)\n"
      "# TYPE infoleak_kernel_dispatch_total counter\n"
      "infoleak_kernel_dispatch_total{variant=\"" +
      std::string(kern::Active().name) + "\"} 3\n"
      "# HELP infoleak_leakage_evaluations_total Record-leakage evaluations "
      "per engine (the hot-loop unit of work)\n"
      "# TYPE infoleak_leakage_evaluations_total counter\n"
      "infoleak_leakage_evaluations_total{engine=\"exact\"} 3\n" +
      BuildInfoPromGolden();
  EXPECT_EQ(SectionAfter(out, "--- metrics ---\n"), expected) << out;
}

TEST(CliStatsTest, LeakageStatsJsonGolden) {
  obs::MetricsRegistry::Global().ResetAll();
  std::string out;
  Status st = cli::Dispatch(
      {"leakage", "--db-csv", kSection24Db, "--reference-text",
       "{<N, Alice>, <P, 123>, <C, 999>, <Z, 111>}", "--engine", "exact",
       "--stats", "--stats-format", "json"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string expected =
      "{\"counters\":["
      "{\"name\":\"infoleak_cli_commands_total\","
      "\"labels\":{\"command\":\"leakage\"},\"value\":1},"
      "{\"name\":\"infoleak_column_bank_appends_total\","
      "\"labels\":{},\"value\":3},"
      "{\"name\":\"infoleak_column_bank_builds_total\","
      "\"labels\":{},\"value\":1},"
      "{\"name\":\"infoleak_kernel_dispatch_total\","
      "\"labels\":{\"variant\":\"" + std::string(kern::Active().name) +
      "\"},\"value\":3},"
      "{\"name\":\"infoleak_leakage_evaluations_total\","
      "\"labels\":{\"engine\":\"exact\"},\"value\":3}"
      "],\"gauges\":[" +
      BuildInfoJsonGolden() +
      "],\"histograms\":[]}";
  EXPECT_EQ(SectionAfter(out, "--- metrics ---\n"), expected) << out;
}

TEST(CliStatsTest, ErStatsPrometheusGolden) {
  obs::MetricsRegistry::Global().ResetAll();
  std::string out;
  Status st = cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--resolver", "transitive", "--stats"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // 3 records, full closure: C(3,2) = 3 candidate pairs, 3 match calls,
  // Alice's two records merge once.
  const std::string expected =
      "# HELP infoleak_cli_commands_total CLI commands dispatched\n"
      "# TYPE infoleak_cli_commands_total counter\n"
      "infoleak_cli_commands_total{command=\"er\"} 1\n"
      "# HELP infoleak_er_candidate_pairs_total Candidate record pairs "
      "generated (before dedup and connectivity short-circuits)\n"
      "# TYPE infoleak_er_candidate_pairs_total counter\n"
      "infoleak_er_candidate_pairs_total{resolver=\"transitive\"} 3\n"
      "# HELP infoleak_er_match_calls_total Pairwise match-function "
      "evaluations actually made\n"
      "# TYPE infoleak_er_match_calls_total counter\n"
      "infoleak_er_match_calls_total{resolver=\"transitive\"} 3\n"
      "# HELP infoleak_er_merges_total Record merges performed\n"
      "# TYPE infoleak_er_merges_total counter\n"
      "infoleak_er_merges_total{resolver=\"transitive\"} 1\n"
      "# HELP infoleak_er_runs_total Entity-resolution runs\n"
      "# TYPE infoleak_er_runs_total counter\n"
      "infoleak_er_runs_total{resolver=\"transitive\"} 1\n" +
      BuildInfoPromGolden();
  EXPECT_EQ(SectionAfter(out, "--- metrics ---\n"), expected) << out;
}

TEST(CliStatsTest, ErStatsJsonGolden) {
  obs::MetricsRegistry::Global().ResetAll();
  std::string out;
  Status st = cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--resolver", "transitive", "--stats",
                             "--stats-format", "json"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string expected =
      "{\"counters\":["
      "{\"name\":\"infoleak_cli_commands_total\","
      "\"labels\":{\"command\":\"er\"},\"value\":1},"
      "{\"name\":\"infoleak_er_candidate_pairs_total\","
      "\"labels\":{\"resolver\":\"transitive\"},\"value\":3},"
      "{\"name\":\"infoleak_er_match_calls_total\","
      "\"labels\":{\"resolver\":\"transitive\"},\"value\":3},"
      "{\"name\":\"infoleak_er_merges_total\","
      "\"labels\":{\"resolver\":\"transitive\"},\"value\":1},"
      "{\"name\":\"infoleak_er_runs_total\","
      "\"labels\":{\"resolver\":\"transitive\"},\"value\":1}"
      "],\"gauges\":[" +
      BuildInfoJsonGolden() +
      "],\"histograms\":[]}";
  EXPECT_EQ(SectionAfter(out, "--- metrics ---\n"), expected) << out;
}

TEST(CliStatsTest, StatsCommandRendersRegistry) {
  obs::MetricsRegistry::Global().ResetAll();
  std::string out;
  ASSERT_TRUE(cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--resolver", "transitive"},
                            &out)
                  .ok());
  out.clear();
  Status st = cli::Dispatch(
      {"stats", "--format", "json", "--skip-zero", "--skip-histograms"},
      &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The stats dispatch itself is counted before rendering.
  EXPECT_NE(out.find("{\"name\":\"infoleak_cli_commands_total\","
                     "\"labels\":{\"command\":\"stats\"},\"value\":1}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("infoleak_er_runs_total"), std::string::npos) << out;

  out.clear();
  st = cli::Dispatch({"stats", "--skip-zero", "--skip-histograms"}, &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("# TYPE infoleak_er_runs_total counter"),
            std::string::npos)
      << out;
}

TEST(CliStatsTest, StatsFormatIsValidated) {
  std::string out;
  EXPECT_TRUE(cli::Dispatch({"stats", "--format", "xml"}, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--stats", "--stats-format", "yaml"},
                            &out)
                  .IsInvalidArgument());
}

TEST(CliStatsTest, TraceRiderAppendsSummary) {
  std::string out;
  Status st = cli::Dispatch({"er", "--db-csv", kSection24Db, "--match-rules",
                             "N", "--resolver", "transitive", "--trace"},
                            &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.find("--- trace ---"), std::string::npos) << out;
  EXPECT_NE(out.find("infoleak_er_resolve_seconds{resolver=\"transitive\"}"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace infoleak
