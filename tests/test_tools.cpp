// End-to-end tests of the aisc and aislint command-line drivers: invoke the
// real binaries on real assembly files and check their output parses,
// preserves semantics, and reproduces the paper's Figure 3 transformation.
// aisd is driven as a process too: flag rejection and SIGTERM shutdown.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/asm_parser.hpp"
#include "ir/interp.hpp"
#include "obs/obs.hpp"

#ifndef AISC_BINARY
#error "AISC_BINARY must point at the aisc executable"
#endif
#ifndef AISLINT_BINARY
#error "AISLINT_BINARY must point at the aislint executable"
#endif
#ifndef AISD_BINARY
#error "AISD_BINARY must point at the aisd executable"
#endif
#ifndef AISPROF_BINARY
#error "AISPROF_BINARY must point at the aisprof executable"
#endif
#ifndef AISLOAD_BINARY
#error "AISLOAD_BINARY must point at the aisload executable"
#endif
#ifndef AIS_EXAMPLES_DIR
#error "AIS_EXAMPLES_DIR must point at the shipped examples/"
#endif

namespace ais {
namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

/// Runs aisc with `args`, returns stdout; fails the test on nonzero exit.
std::string run_aisc(const std::string& args) {
  const std::string out_path = ::testing::TempDir() + "/aisc_out.txt";
  const std::string cmd =
      std::string(AISC_BINARY) + " " + args + " > " + out_path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs a tool command line; returns its exit code and captures stdout.
int run_tool(const std::string& cmd, std::string* out) {
  const std::string out_path = ::testing::TempDir() + "/tool_out.txt";
  const int status =
      std::system((cmd + " > " + out_path + " 2>/dev/null").c_str());
  if (out != nullptr) {
    std::ifstream in(out_path);
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
  }
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Like run_tool, but also captures stderr (where aisc sends --report,
/// --profile and diagnostics, keeping stdout parseable as assembly).
int run_tool_with_stderr(const std::string& cmd, std::string* out,
                         std::string* err) {
  const std::string out_path = ::testing::TempDir() + "/tool_out.txt";
  const std::string err_path = ::testing::TempDir() + "/tool_err.txt";
  const int status =
      std::system((cmd + " > " + out_path + " 2> " + err_path).c_str());
  if (out != nullptr) *out = slurp(out_path);
  if (err != nullptr) *err = slurp(err_path);
  return status;
}

const char* kFig3 = R"(
block CL.18:
  LDU r6, x[r7+4]
  STU y[r5+4], r0
  CMP c1, r6, 0
  MUL r0, r6, r0
  BT  c1, CL.1
)";

TEST(Aisc, LoopModeReproducesPaperSchedule2) {
  const std::string in = write_temp("fig3.s", kFig3);
  const std::string out =
      run_aisc("--in " + in + " --mode loop --machine rs6000 --window 1");
  const Program prog = parse_program(out);
  ASSERT_EQ(prog.blocks.size(), 1u);
  ASSERT_EQ(prog.blocks[0].insts.size(), 5u);
  // Schedule 2: MUL before CMP.
  EXPECT_EQ(prog.blocks[0].insts[2].op, Opcode::kMul);
  EXPECT_EQ(prog.blocks[0].insts[3].op, Opcode::kCmp);
}

TEST(Aisc, TraceModePreservesSemantics) {
  const char* text = R"(
    block a:
      LI  r1, 5
      LI  r2, 7
      MUL r3, r1, r2
      ADD r4, r3, r1
      CMP c1, r4, 0
      BT  c1, b
    block b:
      SHL r5, r4, 2
      ST  out[r9+0], r5
  )";
  const std::string in = write_temp("trace.s", text);
  const std::string out = run_aisc("--in " + in + " --machine deep");
  const Trace original{parse_program(text).blocks};
  const Trace scheduled{parse_program(out).blocks};
  const InterpState init = InterpState::random(12);
  EXPECT_TRUE(run_trace(scheduled, init) == run_trace(original, init));
}

TEST(Aisc, OutputRoundTripsThroughItself) {
  const std::string in = write_temp("fig3b.s", kFig3);
  const std::string once =
      run_aisc("--in " + in + " --mode loop --window 1");
  const std::string once_path = write_temp("fig3_once.s", once);
  const std::string twice =
      run_aisc("--in " + once_path + " --mode loop --window 1");
  EXPECT_EQ(once, twice);  // scheduling is idempotent through the CLI
}

TEST(Aisc, CfgModeKeepsLayout) {
  const char* text = R"(
    block entry:
      LDU r6, a[r7+4]
      CMP c1, r6, 0
      BT  c1, cold
    block hot:
      ADD r1, r6, r6
      ST  out[r9+0], r1
    block cold:
      SUB r2, r6, r6
  )";
  const std::string in = write_temp("cfg.s", text);
  const std::string out = run_aisc("--in " + in + " --mode cfg");
  const Program prog = parse_program(out);
  ASSERT_EQ(prog.blocks.size(), 3u);
  EXPECT_EQ(prog.blocks[0].label, "entry");
  EXPECT_EQ(prog.blocks[1].label, "hot");
  EXPECT_EQ(prog.blocks[2].label, "cold");
}

TEST(Aisc, RenameFlagKeepsArchitecturalSemantics) {
  const char* text = R"(
    block r:
      LI  r1, 3
      ADD r2, r1, r1
      LI  r1, 9
      ADD r3, r1, r2
  )";
  const std::string in = write_temp("ren.s", text);
  const std::string out = run_aisc("--in " + in + " --rename");
  const Trace original{parse_program(text).blocks};
  const Trace scheduled{parse_program(out).blocks};
  const InterpState init = InterpState::random(3);
  EXPECT_TRUE(run_trace(scheduled, init)
                  .equal_architectural(run_trace(original, init), 128));
}

TEST(Aislint, VerifiesEveryShippedExample) {
  const char* examples[] = {"fig3_loop.s", "two_block_trace.s",
                            "diamond_cfg.s", "memory_alias.s"};
  for (const char* name : examples) {
    const std::string cmd = std::string(AISLINT_BINARY) + " --in " +
                            AIS_EXAMPLES_DIR + "/" + name + " --verify";
    std::string out;
    EXPECT_EQ(run_tool(cmd, &out), 0) << cmd << "\n" << out;
  }
}

TEST(Aislint, RejectsStructurallyBrokenProgram) {
  // A branch in the middle of a block is a lint error, not just a warning.
  const char* text = R"(
    block a:
      LI  r1, 5
      BT  c1, a
      ADD r2, r1, r1
  )";
  const std::string in = write_temp("broken.s", text);
  std::string out;
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --in " + in, &out), 0);
  EXPECT_NE(out.find("branch-position"), std::string::npos) << out;
}

TEST(Aislint, ListRulesPrintsTheRegistry) {
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --list-rules", &out), 0);
  for (const char* id : {"branch-position", "dead-def", "dep-cycle",
                         "latency-mismatch", "redundant-dep-edge",
                         "schedule-advisor"}) {
    EXPECT_NE(out.find(id), std::string::npos) << id << "\n" << out;
  }
}

TEST(Aislint, GraphInputHonorsRuleSelectionAndExitContract) {
  const std::string fixture =
      std::string(AIS_ANALYSIS_CORPUS_DIR) + "/dep_cycle.dg";
  std::string out;
  // The staged defect is an error: exit 1 with the rule named.
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture,
                     &out),
            0);
  EXPECT_NE(out.find("dep-cycle"), std::string::npos) << out;
  // Disabling the rule (or selecting a disjoint one) makes the run clean.
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --no-rule=dep-cycle",
                     &out),
            0);
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --rule=latency-mismatch",
                     &out),
            0);
  // Unknown rule ids are a usage error, not a silent no-op.
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --graph " + fixture +
                         " --rule=no-such-rule",
                     nullptr),
            0);
}

TEST(Aislint, SarifOutputIsPureAndWerrorPromotes) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/fig3_loop.s";
  std::string out;
  run_tool(std::string(AISLINT_BINARY) + " --in " + example + " --sarif",
           &out);
  // Machine output: starts with the SARIF object, no human summary line.
  EXPECT_EQ(out.find('{'), 0u) << out;
  EXPECT_NE(out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_EQ(out.find("aislint: "), std::string::npos) << out;
  // fig3_loop's use-before-def warnings promote to a failing exit.
  EXPECT_EQ(run_tool(std::string(AISLINT_BINARY) + " --in " + example, &out),
            0);
  EXPECT_NE(run_tool(std::string(AISLINT_BINARY) + " --in " + example +
                         " --Werror=use-before-def",
                     &out),
            0);
}

TEST(Aislint, FixWritesAReducedGraphThatReanalyzesClean) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/memory_alias.s";
  const std::string reduced = ::testing::TempDir() + "/reduced.dg";
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --in " + example +
                         " --fix --out " + reduced,
                     &out),
            0);
  EXPECT_NE(out.find("byte-identical"), std::string::npos) << out;
  // The written .dg parses and carries no remaining redundant edges.
  ASSERT_EQ(run_tool(std::string(AISLINT_BINARY) + " --graph " + reduced +
                         " --notes",
                     &out),
            0);
  EXPECT_EQ(out.find("redundant-dep-edge"), std::string::npos) << out;
}

TEST(Aislint, AcceptsAiscOutputAgainstItsSource) {
  const char* text = R"(
    block a:
      LI  r1, 5
      LI  r2, 7
      MUL r3, r1, r2
      ADD r4, r3, r1
      CMP c1, r4, 0
      BT  c1, b
    block b:
      SHL r5, r4, 2
      ST  out[r9+0], r5
  )";
  const std::string in = write_temp("lint_src.s", text);
  const std::string compiled = run_aisc("--in " + in + " --machine rs6000");
  const std::string out_path = write_temp("lint_out.s", compiled);
  const std::string cmd = std::string(AISLINT_BINARY) + " --in " + in +
                          " --against " + out_path + " --machine rs6000";
  std::string out;
  EXPECT_EQ(run_tool(cmd, &out), 0) << out;
}

TEST(Aisc, QuietWithoutTelemetryFlags) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " + example,
                                 &out, &err),
            0);
  EXPECT_TRUE(err.empty()) << err;  // telemetry is strictly opt-in
}

TEST(Aisc, ProfileFlagPrintsPhaseTableAndCounters) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "pipeline instrumentation compiled out (AIS_OBS=OFF)";
  }
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                     example + " --profile",
                                 &out, &err),
            0);
  // stdout still carries the schedule; the profile goes to stderr.
  EXPECT_FALSE(parse_program(out).blocks.empty());
  EXPECT_NE(err.find("pipeline profile"), std::string::npos) << err;
  for (const char* phase :
       {"rank", "move_idle", "merge", "chop", "emit", "lookahead"}) {
    EXPECT_NE(err.find(phase), std::string::npos) << "missing phase " << phase
                                                  << " in:\n" << err;
  }
  // The acceptance bar: at least 8 distinct counters in the report.
  int counters = 0;
  for (const char* name :
       {"rank.runs", "rank.nodes_ranked", "merge.calls", "merge.relax_rounds",
        "move_idle.attempts", "move_idle.moved", "chop.calls", "chop.points",
        "lookahead.blocks", "lookahead.window_span_gt_w"}) {
    if (err.find(name) != std::string::npos) ++counters;
  }
  EXPECT_GE(counters, 8) << err;
}

TEST(Aisc, TraceJsonWritesPerfettoLoadableFile) {
  if (!obs::kHooksCompiledIn) {
    GTEST_SKIP() << "pipeline instrumentation compiled out (AIS_OBS=OFF)";
  }
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  const std::string trace = ::testing::TempDir() + "/aisc_trace.json";
  std::string out, err;
  ASSERT_EQ(run_tool_with_stderr(std::string(AISC_BINARY) + " --in " +
                                     example + " --trace-json " + trace,
                                 &out, &err),
            0);
  const std::string json = slurp(trace);
  ASSERT_FALSE(json.empty());
  // Structural spot checks; test_obs.cpp certifies the JSON grammar and the
  // CI telemetry job runs a real JSON parser over the same output.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank\""), std::string::npos);
}

TEST(Aisprof, FileReportCoversPhasesStatsAndStalls) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISPROF_BINARY) + " --in " + example, &out),
            0);
  for (const char* section :
       {"compile:", "cycles:", "schedule stats", "stall attribution",
        "window occupancy histogram"}) {
    EXPECT_NE(out.find(section), std::string::npos)
        << "missing '" << section << "' in:\n" << out;
  }
}

TEST(Aisprof, WindowSpanSurveyReportsFractions) {
  std::string out;
  ASSERT_EQ(run_tool(std::string(AISPROF_BINARY) +
                         " --random-traces 10 --blocks 2 --nodes 6",
                     &out),
            0);
  EXPECT_NE(out.find("window-span survey"), std::string::npos) << out;
  EXPECT_NE(out.find("span > W fraction"), std::string::npos) << out;
}

TEST(Aislint, RejectsCorruptedCompilation) {
  const char* text = R"(
    block a:
      LI  r1, 5
      MUL r3, r1, r1
      ADD r4, r3, r1
  )";
  // A "compilation" that reverses the dependent chain must be rejected.
  const char* corrupted = R"(
    block a:
      ADD r4, r3, r1
      MUL r3, r1, r1
      LI  r1, 5
  )";
  const std::string in = write_temp("lint_good.s", text);
  const std::string bad = write_temp("lint_bad.s", corrupted);
  const std::string cmd = std::string(AISLINT_BINARY) + " --in " + in +
                          " --against " + bad;
  std::string out;
  EXPECT_NE(run_tool(cmd, &out), 0);
  EXPECT_NE(out.find("dep-order"), std::string::npos) << out;
}

/// Starts aisd with `args` (stderr to `log_path`) and returns its pid, or
/// -1 when the spawn failed.
pid_t spawn_aisd(const std::vector<std::string>& args,
                 const std::string& log_path) {
  std::vector<char*> argv;
  std::string binary = AISD_BINARY;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, AISD_BINARY, &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

bool path_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(Aisd, RejectsUnknownFlags) {
  const std::string sock = ::testing::TempDir() + "/aisd_flags.sock";
  std::string err;
  // `timeout`: an aisd that accepted the flag would serve until killed.
  const int status = run_tool_with_stderr(
      "timeout 10 " + std::string(AISD_BINARY) + " --socket " + sock +
          " --batch-max 4",
      nullptr, &err);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(err.find("unknown flag --batch-max"), std::string::npos) << err;
  EXPECT_FALSE(path_exists(sock)) << "aisd must not start serving";
}

/// The other tools, and the bench binaries (bench_corpus_scale stands for
/// them), reject a flag they do not know too, instead of running with its
/// default: usage-error exit, the flag named on stderr, and no work done
/// (nothing on stdout).
TEST(Tools, RejectUnknownFlags) {
  const std::string example =
      std::string(AIS_EXAMPLES_DIR) + "/two_block_trace.s";
  const std::string sock = ::testing::TempDir() + "/aisload_flags.sock";
  struct Case {
    std::string cmd;
    int status;
  };
  const Case cases[] = {
      {std::string(AISC_BINARY) + " --in " + example + " --jobz 4", 1},
      {std::string(AISLINT_BINARY) + " --in " + example + " --jobz 4", 2},
      {std::string(AISLINT_BINARY) + " --list-rules --jobz 4", 2},
      {std::string(AISPROF_BINARY) + " --in " + example + " --jobz 4", 2},
      {std::string(AISPROF_BINARY) + " --random-traces 2 --jobz 4", 2},
      {std::string(AISLOAD_BINARY) + " --socket " + sock + " --jobz 4", 1},
      {std::string(BENCH_CORPUS_SCALE_BINARY) + " --blocks 200 --jobz 2", 2},
  };
  for (const Case& c : cases) {
    std::string out;
    std::string err;
    const int status = run_tool_with_stderr("timeout 10 " + c.cmd, &out, &err);
    ASSERT_TRUE(WIFEXITED(status)) << c.cmd;
    EXPECT_EQ(WEXITSTATUS(status), c.status) << c.cmd;
    EXPECT_NE(err.find("unknown flag --jobz"), std::string::npos)
        << c.cmd << "\n" << err;
    EXPECT_TRUE(out.empty()) << c.cmd << "\n" << out;
  }
}

TEST(Aisd, SigtermShutsDownCleanly) {
  // The signal arrives while the daemon is idle, shortly after start-up:
  // the stop must run once, on the thread that then destroys the server.
  for (int round = 0; round < 10; ++round) {
    const std::string sock = ::testing::TempDir() + "/aisd_sig_" +
                             std::to_string(::getpid()) + ".sock";
    const std::string log = ::testing::TempDir() + "/aisd_sig.log";
    const pid_t pid = spawn_aisd({"--socket", sock}, log);
    ASSERT_GT(pid, 0);
    for (int i = 0; i < 500 && !path_exists(sock); ++i) ::usleep(10'000);
    ASSERT_TRUE(path_exists(sock)) << "aisd did not start";
    ::usleep(100'000);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    pid_t reaped = 0;
    for (int i = 0; i < 1000 && reaped == 0; ++i) {  // 10 s to drain
      reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped == 0) ::usleep(10'000);
    }
    if (reaped == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "round " << round << ": aisd hung after SIGTERM";
    }
    ASSERT_EQ(reaped, pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "round " << round << ": killed by signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0) << "round " << round;
    EXPECT_NE(slurp(log).find("clean shutdown"), std::string::npos)
        << slurp(log);
    EXPECT_FALSE(path_exists(sock)) << "socket path left behind";
  }
}

}  // namespace
}  // namespace ais
