// E14: dependence-analysis precision vs schedule quality.
//
// The scheduler can only fill idle slots with instructions the dependence
// graph proves independent.  This experiment ablates the analyzer's two
// precision levers on random IR traces:
//   * memory disambiguation by region tags (off = every load/store pair
//     with a store conflicts),
//   * register renaming (E13's pass) before analysis.
// Reported: geomean simulated cycles relative to the most precise
// configuration (tags + renaming).
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "ir/depbuild.hpp"
#include "ir/rename.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "workloads/random_ir.hpp"

int main(int argc, char** argv) {
  using namespace ais;
  using benchutil::RatioMean;

  const CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 30));
  if (args.report_unknown("bench_memory_deps")) return 2;

  const MachineModel machine = deep_pipeline();
  const int windows[] = {2, 4};

  struct Config {
    const char* name;
    bool tags;
    bool renaming;
  };
  const Config configs[] = {
      {"tags + renaming (baseline)", true, true},
      {"tags only", true, false},
      {"renaming only", false, true},
      {"neither", false, false},
  };

  std::printf("E14: analyzer precision ablation (random IR traces, 3 blocks "
              "x 12 insts, 40%% memory ops, deep pipeline; %d trials; "
              "geomean cycles relative to tags + renaming)\n\n",
              trials);

  std::map<std::string, std::map<int, RatioMean>> ratio;
  Prng prng(0xe14);
  for (int trial = 0; trial < trials; ++trial) {
    RandomIrParams params;
    params.num_insts = 12;
    params.num_gprs = 5;
    params.num_tags = 3;
    params.mem_frac = 0.4;
    const Trace trace = random_ir_trace(prng, params, 3);
    const Trace renamed = rename_trace(trace);

    for (const int w : windows) {
      double base = 0;
      for (const Config& cfg : configs) {
        DepBuildOptions deps;
        deps.disambiguate_memory = cfg.tags;
        const Trace& input = cfg.renaming ? renamed : trace;
        const DepGraph g = build_trace_graph(input, machine, deps);
        const RankScheduler scheduler(g, machine);
        LookaheadOptions opts;
        opts.window = w;
        const double cycles = static_cast<double>(simulated_completion(
            g, machine, schedule_trace(scheduler, opts).priority_list(), w));
        if (std::string(cfg.name).starts_with("tags + renaming")) {
          base = cycles;
        }
        ratio[cfg.name][w].add(cycles / base);
      }
    }
  }

  TextTable t({"analyzer configuration", "W=2", "W=4"});
  for (const Config& cfg : configs) {
    t.add_row({cfg.name, fmt_double(ratio[cfg.name][2].geomean(), 3),
               fmt_double(ratio[cfg.name][4].geomean(), 3)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
