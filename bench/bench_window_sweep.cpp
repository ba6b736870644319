// E5: anticipatory scheduling vs per-block baselines across window sizes.
//
// The paper's central claim (§1, §2.3): within-block reordering that
// anticipates the hardware window shortens whole-trace completion, most at
// small-to-moderate W (at W = 1 nothing can overlap; at huge W the hardware
// rediscovers the overlap on its own).  Workload: random layered-block
// traces in the provably-optimal regime (0/1 latencies, unit exec, 1 FU).
//
// Rows: per scheduler and window size, geometric-mean cycles normalized to
// anticipatory (1.000 = equal; > 1 = slower than anticipatory).
#include <cstdio>
#include <iterator>
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
  const int trials = static_cast<int>(args.get_int("trials", 40));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 0xe5));
  const std::string csv_path = args.get_string("csv", "");
  if (args.report_unknown("bench_window_sweep")) return 2;

  const MachineModel machine = scalar01();
  const int windows[] = {1, 2, 4, 8, 16, 32};

  std::printf("E5: completion vs window size (0/1 latencies, unit exec, "
              "1 FU; %d random traces of 4 blocks x 10 nodes; values are "
              "geomean cycles relative to anticipatory)\n\n",
              trials);

  // ratios[scheduler][window]
  std::map<std::string, std::map<int, RatioMean>> ratios;
  std::map<int, RatioMean> absolute;

  Prng prng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    RandomTraceParams params;
    params.num_blocks = 4;
    params.block.num_nodes = 10;
    params.block.edge_prob = 0.3;
    params.block.latency1_prob = 0.6;
    params.cross_edges = 2;
    const DepGraph g = random_trace(prng, params);
    // One batched simulate_many over the whole scheduler x window grid: the
    // baselines are window-independent, so they compile once per trace, and
    // the anticipatory list is recompiled per W; every (list, W) execution
    // becomes one SimJob.
    const auto baselines = benchutil::schedule_baselines(g, machine);
    std::vector<std::vector<NodeId>> anticipatory;
    std::vector<SimJob> jobs;
    for (const int w : windows) {
      const RankScheduler scheduler(g, machine);
      LookaheadOptions opts;
      opts.window = w;
      anticipatory.push_back(schedule_trace(scheduler, opts).priority_list());
    }
    for (std::size_t wi = 0; wi < std::size(windows); ++wi) {
      jobs.push_back({&g, &machine, &anticipatory[wi], windows[wi]});
      for (const auto& b : baselines) {
        jobs.push_back({&g, &machine, &b.list, windows[wi]});
      }
    }
    const auto sims = simulate_many(jobs, 4);
    std::size_t job = 0;
    for (const int w : windows) {
      const double base = static_cast<double>(sims[job].completion);
      absolute[w].add(base);
      ratios["anticipatory"][w].add(1.0);
      ++job;
      for (const auto& b : baselines) {
        ratios[b.name][w].add(static_cast<double>(sims[job].completion) /
                              base);
        ++job;
      }
    }
  }

  std::vector<std::string> headers = {"scheduler"};
  for (const int w : windows) headers.push_back("W=" + std::to_string(w));
  TextTable t(headers);
  const char* order[] = {"anticipatory", "rank+delay", "rank", "cp-list",
                         "gibbons-muchnick", "warren", "source-order"};
  for (const char* name : order) {
    std::vector<std::string> row = {name};
    for (const int w : windows) {
      row.push_back(fmt_double(ratios[name][w].geomean(), 3));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  TextTable t2({"metric", "value"});
  for (const int w : windows) {
    t2.add_row({"anticipatory geomean cycles @ W=" + std::to_string(w),
                fmt_double(absolute[w].geomean(), 1)});
  }
  std::printf("%s\n", t2.to_string().c_str());

  // Second workload class: boundary-structured traces (each block ends in a
  // long-latency producer feeding the next block's critical chain) on the
  // deep-pipeline machine — the paper's motivating pattern, where the gap
  // is large at small W and the hardware window closes it as W grows.
  std::map<std::string, std::map<int, RatioMean>> bratios;
  for (const int lat : {2, 3, 4}) {
    Prng bprng(seed ^ 0xb0);
    for (int trial = 0; trial < trials; ++trial) {
      BoundaryTraceParams bp;
      bp.boundary_latency = lat;
      const DepGraph g = boundary_trace(bprng, bp);
      const MachineModel bmachine = deep_pipeline();
      const auto baselines = benchutil::schedule_baselines(g, bmachine);
      std::vector<std::vector<NodeId>> anticipatory;
      std::vector<SimJob> jobs;
      for (const int w : windows) {
        const RankScheduler scheduler(g, bmachine);
        LookaheadOptions opts;
        opts.window = w;
        anticipatory.push_back(
            schedule_trace(scheduler, opts).priority_list());
      }
      for (std::size_t wi = 0; wi < std::size(windows); ++wi) {
        jobs.push_back({&g, &bmachine, &anticipatory[wi], windows[wi]});
        for (const auto& b : baselines) {
          jobs.push_back({&g, &bmachine, &b.list, windows[wi]});
        }
      }
      const auto sims = simulate_many(jobs, 4);
      std::size_t job = 0;
      for (const int w : windows) {
        const double base = static_cast<double>(sims[job].completion);
        bratios["anticipatory"][w].add(1.0);
        ++job;
        for (const auto& b : baselines) {
          bratios[b.name][w].add(static_cast<double>(sims[job].completion) /
                                 base);
          ++job;
        }
      }
    }
  }
  std::printf("boundary-structured traces (deep-pipeline, boundary "
              "latencies 2-4; geomean cycles relative to anticipatory):\n");
  TextTable t3(headers);
  for (const char* name : order) {
    std::vector<std::string> row = {name};
    for (const int w : windows) {
      row.push_back(fmt_double(bratios[name][w].geomean(), 3));
    }
    t3.add_row(row);
  }
  std::printf("%s", t3.to_string().c_str());

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"workload", "scheduler", "window", "geomean_ratio"});
    for (const char* name : order) {
      for (const int w : windows) {
        csv.add_row({"random", name, std::to_string(w),
                     fmt_double(ratios[name][w].geomean(), 5)});
        csv.add_row({"boundary", name, std::to_string(w),
                     fmt_double(bratios[name][w].geomean(), 5)});
      }
    }
  }
  return 0;
}
