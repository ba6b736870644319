// E9: how close is Algorithm Lookahead to the exhaustive optimum?
//
// For small random traces in the restricted case, enumerate every
// combination of per-block topological orders, execute each on the
// lookahead machine, and compare the true optimum against Algorithm
// Lookahead and the per-block baselines.  Reports exact-match rates and
// average gaps.  (Per DESIGN.md: Procedure Merge forbids displacing
// already-scheduled instructions, so a small fraction of instances give up
// one cycle to the unrestricted optimum.)
#include <cstdio>
#include <map>

#include "baselines/block_schedulers.hpp"
#include "baselines/bruteforce.hpp"
#include "bench_common.hpp"
#include "core/lookahead.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "workloads/random_graphs.hpp"

int main(int argc, char** argv) {
  using namespace ais;

  const CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 120));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0xe9));
  if (args.report_unknown("bench_optimality")) return 2;

  const MachineModel machine = scalar01();

  struct Stats {
    int exact = 0;
    long long gap_sum = 0;
    long long max_gap = 0;
  };
  std::map<std::string, Stats> stats;
  int usable = 0;

  Prng prng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    RandomTraceParams params;
    params.num_blocks = 2;
    params.block.num_nodes = static_cast<int>(prng.uniform(3, 6));
    params.block.edge_prob = 0.4;
    params.block.latency1_prob = 0.6;
    params.cross_edges = static_cast<int>(prng.uniform(0, 3));
    const DepGraph g = random_trace(prng, params);
    const int window = static_cast<int>(prng.uniform(2, 6));

    const Time opt = optimal_trace_completion(g, machine, window);
    if (opt < 0) continue;  // enumeration cap hit
    ++usable;

    for (const auto& row : benchutil::compare_schedulers(g, machine, window)) {
      Stats& s = stats[row.name];
      const long long gap = row.cycles - opt;
      s.exact += (gap == 0);
      s.gap_sum += gap;
      s.max_gap = std::max(s.max_gap, gap);
    }
  }

  std::printf("E9: vs the exhaustive legal-schedule optimum "
              "(%d usable instances; 2 blocks x 3-5 nodes, W in [2,5])\n\n",
              usable);
  TextTable t({"scheduler", "optimal (%)", "avg gap (cycles)", "max gap"});
  const char* order[] = {"anticipatory", "rank+delay", "rank", "cp-list",
                         "gibbons-muchnick", "warren", "source-order"};
  for (const char* name : order) {
    const Stats& s = stats[name];
    t.add_row({name, fmt_double(100.0 * s.exact / usable, 1),
               fmt_double(static_cast<double>(s.gap_sum) / usable, 3),
               std::to_string(s.max_gap)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
