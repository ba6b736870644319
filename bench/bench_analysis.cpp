// Analysis-pass overhead on the shipped example corpus.
//
// The static-analysis framework (src/analysis) is designed to ride along
// with every compile — its rules reuse the compile's own dependence graph —
// so its cost must stay a small fraction of the end-to-end compile.  This
// benchmark times both halves per example:
//
//   compile  = parse + dependence graph + anticipatory schedule + verify
//   gating   = run_analysis over the exit-code-relevant rules (error and
//              warning severity: the set a compile actually gates on)
//   full     = every rule, including the two advisory notes — the
//              schedule-advisor re-runs the rank scheduler, so on
//              micro-examples it is inherently compile-sized and opt-in
//
// and reports both overhead percentages.  With --json FILE it writes a
// machine-readable report that scripts/bench_json.py folds into the
// benchmark snapshot; the *gating* overhead is asserted below
// --max-analysis-overhead (default 5%, see docs/PERFORMANCE.md).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "cfg/cfg.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "ir/asm_parser.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "verify/verify.hpp"

namespace {

using namespace ais;

struct ExampleSpec {
  const char* file;
  const char* mode;  // trace | loop | cfg — the example's natural shape
};

constexpr ExampleSpec kExamples[] = {
    {"fig3_loop.s", "loop"},
    {"two_block_trace.s", "trace"},
    {"memory_alias.s", "trace"},
    {"diamond_cfg.s", "cfg"},
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "bench_analysis: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

struct Row {
  std::string name;
  std::string mode;
  double compile_ms = 0;
  double gating_ms = 0;  // error/warning rules only (what a compile gates on)
  double full_ms = 0;    // every rule, advisory notes included
  double overhead_pct() const {
    return compile_ms > 0 ? 100.0 * gating_ms / compile_ms : 0.0;
  }
  double full_pct() const {
    return compile_ms > 0 ? 100.0 * full_ms / compile_ms : 0.0;
  }
};

Row measure(const ExampleSpec& spec, const std::string& dir,
            const MachineModel& machine, int repeat) {
  const std::string text = slurp(dir + "/" + spec.file);
  const std::string mode = spec.mode;

  // The gating configuration: exit-code-relevant rules only.  Notes never
  // fail a run (see docs/ANALYSIS.md), so the advisory pair is opt-in.
  analysis::AnalysisOptions gating;
  for (const analysis::RuleInfo& info : analysis::rule_registry()) {
    if (info.default_severity == verify::Severity::kNote) {
      gating.disabled.push_back(info.id);
    }
  }

  std::vector<double> compile_samples, gating_samples, full_samples;
  for (int r = 0; r < repeat; ++r) {
    // End-to-end compile, text to verified schedule, as aisc runs it.
    compile_samples.push_back(timed_ms([&] {
      const Program prog = parse_program(text);
      if (mode == "cfg") {
        const Cfg cfg(prog);
        compile_program(cfg, machine, /*window=*/0, /*verify=*/true);
      } else if (mode == "loop") {
        Loop loop;
        loop.body = Trace{prog.blocks};
        const ScheduledLoop scheduled = schedule(loop, machine, 0);
        verify_schedule(loop, scheduled, machine);
      } else {
        const Trace trace{prog.blocks};
        const ScheduledTrace scheduled = schedule(trace, machine, 0);
        verify_schedule(trace, scheduled, machine);
      }
    }));

    // The analysis pass as the compile would run it: program rules plus
    // graph rules over the compile's own graph (cfg compiles have no
    // single whole-trace graph, so they pay for program rules only).
    Program prog = parse_program(text);
    DepGraph graph;
    analysis::AnalysisInput input;
    input.program = &prog;
    input.machine = &machine;
    if (mode == "loop") {
      Loop loop;
      loop.body = Trace{prog.blocks};
      graph = build_loop_graph(loop, machine);
      input.graph = &graph;
    } else if (mode == "trace") {
      graph = build_trace_graph(Trace{prog.blocks}, machine);
      input.graph = &graph;
    }
    gating_samples.push_back(
        timed_ms([&] { analysis::run_analysis(input, gating); }));
    full_samples.push_back(
        timed_ms([&] { analysis::run_analysis(input, {}); }));
  }

  Row row;
  row.name = std::string(spec.file, std::string(spec.file).rfind('.'));
  row.mode = mode;
  row.compile_ms = median(compile_samples);
  row.gating_ms = median(gating_samples);
  row.full_ms = median(full_samples);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string dir = args.get_string("examples", AIS_EXAMPLES_DIR);
  const int repeat = static_cast<int>(args.get_int("repeat", 30));
  const std::string json_path = args.get_string("json", "");
  if (args.report_unknown("bench_analysis")) return 2;
  const MachineModel& machine = *machine_preset("rs6000");

  std::printf("analysis-pass overhead on the example corpus "
              "(median of %d runs, machine rs6000)\n\n",
              repeat);
  TextTable t({"example", "mode", "compile (ms)", "gating (ms)",
               "overhead", "full (ms)", "full overhead"});
  std::vector<Row> rows;
  for (const ExampleSpec& spec : kExamples) {
    rows.push_back(measure(spec, dir, machine, repeat));
    const Row& row = rows.back();
    char compile_buf[32], gating_buf[32], pct_buf[32], full_buf[32],
        full_pct_buf[32];
    std::snprintf(compile_buf, sizeof compile_buf, "%.4f", row.compile_ms);
    std::snprintf(gating_buf, sizeof gating_buf, "%.4f", row.gating_ms);
    std::snprintf(pct_buf, sizeof pct_buf, "%.1f%%", row.overhead_pct());
    std::snprintf(full_buf, sizeof full_buf, "%.4f", row.full_ms);
    std::snprintf(full_pct_buf, sizeof full_pct_buf, "%.1f%%",
                  row.full_pct());
    t.add_row({row.name, row.mode, compile_buf, gating_buf, pct_buf,
               full_buf, full_pct_buf});
  }
  // The gated number is the corpus aggregate: per-example ratios on
  // sub-50us compiles are dominated by fixed costs and measurement noise.
  Row total;
  total.name = "corpus total";
  for (const Row& row : rows) {
    total.compile_ms += row.compile_ms;
    total.gating_ms += row.gating_ms;
    total.full_ms += row.full_ms;
  }
  {
    char compile_buf[32], gating_buf[32], pct_buf[32], full_buf[32],
        full_pct_buf[32];
    std::snprintf(compile_buf, sizeof compile_buf, "%.4f", total.compile_ms);
    std::snprintf(gating_buf, sizeof gating_buf, "%.4f", total.gating_ms);
    std::snprintf(pct_buf, sizeof pct_buf, "%.1f%%", total.overhead_pct());
    std::snprintf(full_buf, sizeof full_buf, "%.4f", total.full_ms);
    std::snprintf(full_pct_buf, sizeof full_pct_buf, "%.1f%%",
                  total.full_pct());
    t.add_row({total.name, "", compile_buf, gating_buf, pct_buf, full_buf,
               full_pct_buf});
  }
  std::printf("%s", t.to_string().c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "bench_analysis: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\n  \"schema\": 1,\n  \"examples\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"name\": \"" << row.name << "\", \"mode\": \""
          << row.mode << "\", \"compile_ms\": " << row.compile_ms
          << ", \"analysis_ms\": " << row.gating_ms
          << ", \"overhead_pct\": " << row.overhead_pct()
          << ", \"full_ms\": " << row.full_ms
          << ", \"full_pct\": " << row.full_pct() << "}"
          << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"total\": {\"compile_ms\": " << total.compile_ms
        << ", \"analysis_ms\": " << total.gating_ms
        << ", \"overhead_pct\": " << total.overhead_pct()
        << ", \"full_ms\": " << total.full_ms
        << ", \"full_pct\": " << total.full_pct() << "}\n}\n";
  }
  return 0;
}
