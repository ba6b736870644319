// E12 (§2.4): anticipatory scheduling as a post-pass to software pipelining.
//
// For each loop: modulo-schedule it (iterative modulo scheduling), build
// the kernel graph, then reorder the kernel with the §5.2.3 candidate
// search.  Columns: the II bounds, the achieved II, and steady-state
// cycles/iteration of (a) the unpipelined block-optimal order, (b) the
// kernel in natural (slot) order, (c) the kernel after the AIS post-pass —
// all executed on the lookahead machine at small windows, where emitted
// order matters most.
#include <cstdio>
#include <string>

#include "core/loop_single.hpp"
#include "core/rank.hpp"
#include "ir/depbuild.hpp"
#include "machine/machine_model.hpp"
#include "pipeline/modulo.hpp"
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
  return scheduler
      .run(all, uniform_deadlines(li, huge_deadline(li, all)), {})
      .schedule.permutation();
}

void run_case(TextTable& t, const std::string& name, const DepGraph& g,
              const MachineModel& machine, int window) {
  const ModuloSchedule s = modulo_schedule(g, machine);
  if (!s.found) {
    t.add_row({name, "-", "-", "-", "-", "-", "-"});
    return;
  }
  const DepGraph k = kernel_graph(g, s);
  std::vector<NodeId> natural;
  for (NodeId id = 0; id < k.num_nodes(); ++id) natural.push_back(id);

  const double unpipelined = steady_state_period(
      g, machine, block_optimal_order(g, machine), window);
  const double kernel_natural =
      steady_state_period(k, machine, natural, window);

  LoopSingleOptions opts;
  opts.prune = LoopSingleOptions::Prune::kNever;
  const LoopCandidate best = schedule_single_block_loop(
      k, machine,
      [&](const std::vector<NodeId>& order) {
        return steady_state_period(k, machine, order, window);
      },
      opts);
  const double kernel_ais = steady_state_period(k, machine, best.order, window);

  t.add_row({name,
             std::to_string(std::max(resource_mii(g, machine),
                                     recurrence_mii(g))),
             std::to_string(s.ii), fmt_double(unpipelined, 2),
             fmt_double(kernel_natural, 2), fmt_double(kernel_ais, 2),
             fmt_double(unpipelined / kernel_ais, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ais;
  const CliArgs args(argc, argv);
  const int window = static_cast<int>(args.get_int("window", 1));
  const int random_trials = static_cast<int>(args.get_int("random", 8));
  if (args.report_unknown("bench_swp_postpass")) return 2;

  std::printf("E12 / §2.4: software pipelining + AIS post-pass "
              "(steady-state cycles/iteration at W = %d)\n\n",
              window);
  TextTable t({"loop", "MII", "II", "no SWP", "SWP kernel", "SWP + AIS",
               "total speedup"});

  run_case(t, "fig3 (hand graph)", fig3_loop(), scalar01(), window);
  const MachineModel rs = rs6000_like();
  for (const auto& [name, loop] : all_loop_kernels()) {
    run_case(t, name, build_loop_graph(loop, rs), rs, window);
  }

  Prng prng(0xe12);
  for (int trial = 0; trial < random_trials; ++trial) {
    RandomLoopParams params;
    params.block.num_nodes = static_cast<int>(prng.uniform(5, 9));
    params.block.edge_prob = 0.35;
    params.block.max_latency = 4;
    params.carried_edges = static_cast<int>(prng.uniform(1, 3));
    const DepGraph g = random_loop(prng, params);
    run_case(t, "random#" + std::to_string(trial), g, deep_pipeline(),
             window);
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
