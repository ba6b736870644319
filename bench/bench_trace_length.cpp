// E6: effect of trace length (number of basic blocks).
//
// Anticipatory gains accrue per block boundary, so longer traces should
// widen the absolute gap against local schedulers while per-boundary
// relative gain stays steady.  Restricted-case machine, W = 4.
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
  const int trials = static_cast<int>(args.get_int("trials", 30));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0xe6));
  const std::string csv_path = args.get_string("csv", "");
  const int window = static_cast<int>(args.get_int("window", 4));
  if (args.report_unknown("bench_trace_length")) return 2;

  const MachineModel machine = scalar01();
  const int lengths[] = {1, 2, 4, 8, 16, 32, 64};

  std::printf("E6: completion vs trace length m (blocks of 8 nodes, W = %d; "
              "%d trials per point; geomean cycles relative to "
              "anticipatory)\n\n",
              window, trials);

  std::map<std::string, std::map<int, RatioMean>> ratios;
  std::map<int, RatioMean> absolute;

  for (const int m : lengths) {
    Prng prng(seed + static_cast<std::uint64_t>(m));
    for (int trial = 0; trial < trials; ++trial) {
      RandomTraceParams params;
      params.num_blocks = m;
      params.block.num_nodes = 8;
      params.block.edge_prob = 0.35;
      params.block.latency1_prob = 0.6;
      params.cross_edges = 2;
      const DepGraph g = random_trace(prng, params);
      const auto rows = benchutil::compare_schedulers(g, machine, window);
      const double base = static_cast<double>(rows[0].cycles);
      absolute[m].add(base);
      for (const auto& row : rows) {
        ratios[row.name][m].add(static_cast<double>(row.cycles) / base);
      }
    }
  }

  std::vector<std::string> headers = {"scheduler"};
  for (const int m : lengths) headers.push_back("m=" + std::to_string(m));
  TextTable t(headers);
  const char* order[] = {"anticipatory", "rank+delay", "rank", "cp-list",
                         "gibbons-muchnick", "warren", "source-order"};
  for (const char* name : order) {
    std::vector<std::string> row = {name};
    for (const int m : lengths) {
      row.push_back(fmt_double(ratios[name][m].geomean(), 3));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  TextTable t2({"m", "anticipatory geomean cycles"});
  for (const int m : lengths) {
    t2.add_row({std::to_string(m), fmt_double(absolute[m].geomean(), 1)});
  }
  std::printf("%s", t2.to_string().c_str());

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"scheduler", "blocks", "geomean_ratio"});
    for (const char* name : order) {
      for (const int m : lengths) {
        csv.add_row({name, std::to_string(m),
                     fmt_double(ratios[name][m].geomean(), 5)});
      }
    }
  }
  return 0;
}
