// E10: ablation of Algorithm Lookahead's ingredients.
//
// DESIGN.md calls out three design choices: (a) Delay_Idle_Slots (the
// paper's key idea — push idle slots late), (b) Merge's deadline caps
// (old instructions are never displaced), (c) Chop (emit settled prefixes
// to bound live-set growth).  Each switch is disabled in turn; values are
// geomean simulated cycles relative to the full algorithm (> 1 = slower,
// < 1 = the ablated variant happened to win on this workload).
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "core/lookahead.hpp"
#include "sim/lookahead_sim.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "workloads/random_graphs.hpp"

int main(int argc, char** argv) {
  using namespace ais;
  using benchutil::RatioMean;

  const CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 40));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0xe10));
  if (args.report_unknown("bench_ablation")) return 2;

  struct Variant {
    const char* name;
    bool delay_idle;
    bool merge_caps;
    bool do_chop;
  };
  const Variant variants[] = {
      {"full algorithm", true, true, true},
      {"no Delay_Idle_Slots", false, true, true},
      {"no merge deadline caps", true, false, true},
      {"no chop (re-merge all)", true, true, false},
      {"none (plain merge only)", false, false, true},
  };
  const int windows[] = {2, 4, 8};

  const MachineModel machine = scalar01();
  std::map<std::string, std::map<int, RatioMean>> ratios;

  Prng prng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    // Alternate between unstructured random traces (restricted case) and
    // boundary-structured traces (deep pipeline) — the latter is where the
    // ingredients carry the most weight.
    const bool structured = (trial % 2) == 1;
    DepGraph g;
    MachineModel trial_machine = machine;
    if (structured) {
      BoundaryTraceParams bp;
      bp.num_blocks = 5;
      bp.boundary_latency = static_cast<int>(prng.uniform(2, 4));
      g = boundary_trace(prng, bp);
      trial_machine = deep_pipeline();
    } else {
      RandomTraceParams params;
      params.num_blocks = 5;
      params.block.num_nodes = 8;
      params.block.edge_prob = 0.35;
      params.block.latency1_prob = 0.7;
      params.cross_edges = 2;
      g = random_trace(prng, params);
    }
    const RankScheduler scheduler(g, trial_machine);

    for (const int w : windows) {
      double base = 0;
      for (const Variant& v : variants) {
        LookaheadOptions opts;
        opts.window = w;
        opts.delay_idle = v.delay_idle;
        opts.merge_deadline_caps = v.merge_caps;
        opts.do_chop = v.do_chop;
        const LookaheadResult res = schedule_trace(scheduler, opts);
        const double cycles = static_cast<double>(
            simulated_completion(g, trial_machine, res.priority_list(), w));
        if (std::string(v.name) == "full algorithm") base = cycles;
        ratios[v.name][w].add(cycles / base);
      }
    }
  }

  std::printf("E10: ablation (traces of 5 blocks x 8 nodes, %d trials; "
              "geomean cycles relative to the full algorithm)\n\n",
              trials);
  std::vector<std::string> headers = {"variant"};
  for (const int w : windows) headers.push_back("W=" + std::to_string(w));
  TextTable t(headers);
  for (const Variant& v : variants) {
    std::vector<std::string> row = {v.name};
    for (const int w : windows) {
      row.push_back(fmt_double(ratios[v.name][w].geomean(), 3));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
