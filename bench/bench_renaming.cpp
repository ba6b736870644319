// E13: register renaming × anticipatory scheduling.
//
// §6 notes that schedulers either encode allocator-induced anti-dependences
// in the graph or assume renaming removed them.  This experiment measures
// how much scheduling freedom renaming restores under tight register pools:
// random IR traces with 3-6 general registers, scheduled with and without
// the local renaming pass, executed at several window sizes.
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
  if (args.report_unknown("bench_renaming")) return 2;

  const MachineModel machine = deep_pipeline();
  const int windows[] = {1, 2, 4, 8};

  std::printf("E13: local register renaming (random IR traces, 3 blocks x "
              "12 insts, deep pipeline; %d trials per register-pool size; "
              "values are geomean cycles of the renamed program relative to "
              "the original, both anticipatorily scheduled)\n\n",
              trials);

  TextTable t({"gprs", "edges removed (%)", "W=1", "W=2", "W=4", "W=8"});
  for (const int gprs : {3, 4, 6}) {
    Prng prng(0xe13 + static_cast<std::uint64_t>(gprs));
    std::map<int, RatioMean> ratio;
    RatioMean edge_drop;
    for (int trial = 0; trial < trials; ++trial) {
      RandomIrParams params;
      params.num_insts = 12;
      params.num_gprs = gprs;
      params.mem_frac = 0.25;
      const Trace trace = random_ir_trace(prng, params, 3);
      const Trace renamed = rename_trace(trace);

      const DepGraph g0 = build_trace_graph(trace, machine);
      const DepGraph g1 = build_trace_graph(renamed, machine);
      edge_drop.add(static_cast<double>(g1.num_edges() + 1) /
                    static_cast<double>(g0.num_edges() + 1));

      for (const int w : windows) {
        const RankScheduler s0(g0, machine);
        const RankScheduler s1(g1, machine);
        LookaheadOptions opts;
        opts.window = w;
        const Time before = simulated_completion(
            g0, machine, schedule_trace(s0, opts).priority_list(), w);
        const Time after = simulated_completion(
            g1, machine, schedule_trace(s1, opts).priority_list(), w);
        ratio[w].add(static_cast<double>(after) /
                     static_cast<double>(before));
      }
    }
    std::vector<std::string> row = {
        std::to_string(gprs),
        fmt_double(100.0 * (1.0 - edge_drop.geomean()), 1)};
    for (const int w : windows) {
      row.push_back(fmt_double(ratio[w].geomean(), 3));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\n(< 1.000 = renaming made the scheduled code faster)\n");
  return 0;
}
