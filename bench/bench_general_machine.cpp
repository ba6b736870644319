// E7: the §4.2 heuristic regimes — longer latencies, non-unit execution
// times, typed multiple functional units.
//
// Machines: rs6000-like (typed single-issue, multiply latency 4),
// deep-pipeline (1 FU, latencies up to 4, 4-cycle divides), vliw4 (4-wide).
// Workload: random traces over a realistic opcode mix; dependences carry
// producer latencies.  Also compares the whole-insertion vs unit-splitting
// backward-rank variants the paper discusses.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "workloads/random_graphs.hpp"

int main(int argc, char** argv) {
  using namespace ais;
  using benchutil::RatioMean;

  const CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0xe7));
  const std::string csv_path = args.get_string("csv", "");
  if (args.report_unknown("bench_general_machine")) return 2;

  struct MachineCase {
    const char* name;
    MachineModel machine;
  };
  const MachineCase machines[] = {
      {"rs6000-like", rs6000_like()},
      {"deep-pipeline", deep_pipeline()},
      {"vliw4", vliw4()},
  };

  std::printf("E7: general machine models (traces of 4 blocks x 10 ops, "
              "W = machine default; %d trials; geomean cycles relative to "
              "anticipatory)\n\n",
              trials);

  const char* order[] = {"anticipatory", "rank+delay", "rank", "cp-list",
                         "gibbons-muchnick", "warren", "source-order"};

  std::map<std::string, std::map<std::string, RatioMean>> ratios;
  std::map<std::string, RatioMean> split_ratio;

  for (const auto& mc : machines) {
    Prng prng(seed);
    for (int trial = 0; trial < trials; ++trial) {
      const DepGraph g =
          random_machine_trace(prng, mc.machine, 4, 10, 0.3, 2);
      const int window = mc.machine.default_window();
      const auto rows = benchutil::compare_schedulers(g, mc.machine, window);
      const double base = static_cast<double>(rows[0].cycles);
      for (const auto& row : rows) {
        ratios[row.name][mc.name].add(static_cast<double>(row.cycles) / base);
      }

      // Whole-insertion vs unit-splitting ranks (§4.2 non-unit exec).
      const RankScheduler scheduler(g, mc.machine);
      LookaheadOptions lo;
      lo.window = window;
      lo.rank.split_long_ops = true;
      const LookaheadResult split_res = schedule_trace(scheduler, lo);
      split_ratio[mc.name].add(
          static_cast<double>(simulated_completion(
              g, mc.machine, split_res.priority_list(), window)) /
          base);
    }
  }

  std::vector<std::string> headers = {"scheduler"};
  for (const auto& mc : machines) headers.push_back(mc.name);
  TextTable t(headers);
  for (const char* name : order) {
    std::vector<std::string> row = {name};
    for (const auto& mc : machines) {
      row.push_back(fmt_double(ratios[name][mc.name].geomean(), 3));
    }
    t.add_row(row);
  }
  {
    std::vector<std::string> row = {"anticipatory (unit-split ranks)"};
    for (const auto& mc : machines) {
      row.push_back(fmt_double(split_ratio[mc.name].geomean(), 3));
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"scheduler", "machine", "geomean_ratio"});
    for (const char* name : order) {
      for (const auto& mc : machines) {
        csv.add_row({name, mc.name,
                     fmt_double(ratios[name][mc.name].geomean(), 5)});
      }
    }
  }
  return 0;
}
