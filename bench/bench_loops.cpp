// E8: loop kernels — anticipatory single-block loop scheduling (§5.2.3)
// vs the block-optimal order, in steady-state cycles per iteration.
//
// Kernels: the paper's Figure 3 partial-product loop plus classic inner
// loops (daxpy, dot, FIR, horner, sum-until-zero), all compiled through the
// toy IR and dependence analyzer onto the RS/6000-like machine, plus random
// synthetic loops in the restricted regime.
#include <cmath>
#include <cstdio>
#include <string>

#include "core/loop_single.hpp"
#include "core/rank.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "sim/loop_sim.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_graphs.hpp"

namespace {

using namespace ais;

/// Block-optimal order: the Rank Algorithm over the loop-independent
/// subgraph only (what a lookahead-oblivious scheduler emits).
std::vector<NodeId> block_optimal_order(const DepGraph& g,
                                        const MachineModel& machine) {
  DepGraph li;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const NodeInfo& n = g.node(id);
    li.add_node(n.name, n.exec_time, n.fu_class, n.block);
  }
  for (const DepEdge& e : g.edges()) {
    if (e.distance == 0) li.add_edge(e.from, e.to, e.latency, 0);
  }
  const RankScheduler scheduler(li, machine);
  const NodeSet all = NodeSet::all(li.num_nodes());
  const RankResult r =
      scheduler.run(all, uniform_deadlines(li, huge_deadline(li, all)), {});
  return r.schedule.permutation();
}

void run_case(TextTable& t, const std::string& name, const DepGraph& g,
              const MachineModel& machine, int window) {
  const auto evaluator = [&](const std::vector<NodeId>& order) {
    return steady_state_period(g, machine, order, window);
  };
  LoopSingleOptions opts;
  opts.prune = LoopSingleOptions::Prune::kNever;
  const LoopCandidate best =
      schedule_single_block_loop(g, machine, evaluator, opts);
  const double anticipatory = evaluator(best.order);
  const double block = evaluator(block_optimal_order(g, machine));
  t.add_row({name, std::to_string(g.num_nodes()), std::to_string(window),
             fmt_double(anticipatory, 2), fmt_double(block, 2),
             fmt_double(block / anticipatory, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ais;
  const CliArgs args(argc, argv);
  const int random_trials = static_cast<int>(args.get_int("random", 8));
  if (args.report_unknown("bench_loops")) return 2;

  std::printf("E8: loop kernels, steady-state cycles per iteration "
              "(anticipatory = §5.2.3 general case; block = rank over the "
              "loop-independent subgraph)\n\n");

  TextTable t({"kernel", "insts", "W", "anticipatory", "block-optimal",
               "speedup"});

  // The paper's own example, on both machine renditions.
  run_case(t, "fig3 (hand graph)", fig3_loop(), scalar01(), 1);
  const MachineModel rs = rs6000_like();
  for (const auto& [name, loop] : all_loop_kernels()) {
    const DepGraph g = build_loop_graph(loop, rs);
    run_case(t, name, g, rs, 1);
  }

  std::printf("%s\n", t.to_string().c_str());

  // Random loop populations, reported in aggregate: most random loops are
  // work-bound (any topological order achieves the recurrence bound); the
  // interesting minority are fig3-like, where the §5.2.3 choice buys a
  // whole latency.  Columns: fraction of instances where anticipatory
  // strictly beats the block-optimal order, and mean speedup among those.
  struct Regime {
    const char* name;
    MachineModel machine;
    int window;
    int max_latency;
    double edge_prob;
  };
  const Regime regimes[] = {
      {"restricted (0/1 lat)", scalar01(), 2, 1, 0.3},
      {"deep pipeline (lat<=4), W=1", deep_pipeline(), 1, 4, 0.45},
      {"deep pipeline (lat<=4), W=2", deep_pipeline(), 2, 4, 0.45},
  };
  const int population = 8 * random_trials;

  TextTable agg({"regime", "loops", "anticipatory wins", "avg speedup on wins",
                 "geomean speedup"});
  for (const Regime& regime : regimes) {
    Prng prng(0xe8);
    int wins = 0;
    double gain_sum = 0;
    double log_sum = 0;
    for (int trial = 0; trial < population; ++trial) {
      RandomLoopParams params;
      params.block.num_nodes = static_cast<int>(prng.uniform(4, 7));
      params.block.edge_prob = regime.edge_prob;
      params.block.max_latency = regime.max_latency;
      params.carried_edges = static_cast<int>(prng.uniform(2, 4));
      const DepGraph g = random_loop(prng, params);
      const auto evaluator = [&](const std::vector<NodeId>& order) {
        return steady_state_period(g, regime.machine, order, regime.window);
      };
      LoopSingleOptions opts;
      opts.prune = LoopSingleOptions::Prune::kNever;
      const LoopCandidate best =
          schedule_single_block_loop(g, regime.machine, evaluator, opts);
      const double anticipatory = evaluator(best.order);
      const double block =
          evaluator(block_optimal_order(g, regime.machine));
      log_sum += std::log(block / anticipatory);
      if (anticipatory < block - 1e-9) {
        ++wins;
        gain_sum += block / anticipatory;
      }
    }
    agg.add_row({regime.name, std::to_string(population),
                 std::to_string(wins),
                 wins ? fmt_double(gain_sum / wins, 3) : std::string("-"),
                 fmt_double(std::exp(log_sum / population), 3)});
  }
  std::printf("random loop populations:\n%s", agg.to_string().c_str());
  return 0;
}
