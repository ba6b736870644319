// Corpus-scale compile gate: a million-block program streamed through the
// full pipeline (CFG -> trace selection -> anticipatory scheduling of every
// trace) in chunks, with wall-clock and peak-RSS budgets enforced from the
// command line.  CI perf-smoke pins the seed and the budgets; see
// docs/PERFORMANCE.md ("Corpus-scale gate").
//
//   bench_corpus_scale [--blocks N] [--chunk N] [--seed S] [--jobs J]
//                      [--machine NAME] [--window W] [--insts K]
//                      [--json FILE] [--max-ms MS] [--max-rss-mb MB]
//
// Peak memory stays O(chunk), never O(program): random_ir_program_chunks
// streams self-contained chunk Programs, and each is compiled and dropped
// before the next is generated.  The run is deterministic in --seed at
// every --jobs (compile_program's contract).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "cfg/cfg.hpp"
#include "core/schedule_cache.hpp"
#include "driver/function_compiler.hpp"
#include "machine/machine_model.hpp"
#include "obs/process_stats.hpp"
#include "support/cli.hpp"
#include "workloads/random_ir.hpp"

namespace {

using namespace ais;

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  RandomIrProgramParams params;
  params.num_blocks =
      static_cast<std::size_t>(args.get_int("blocks", 1'000'000));
  params.blocks_per_chunk =
      static_cast<std::size_t>(args.get_int("chunk", 4096));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  params.block.num_insts = static_cast<int>(args.get_int("insts", 8));

  const std::string machine_name = args.get_string("machine", "rs6000");
  const MachineModel* machine = machine_preset(machine_name);
  if (machine == nullptr) {
    std::fprintf(stderr, "bench_corpus_scale: unknown machine '%s'\n",
                 machine_name.c_str());
    return 2;
  }
  const int window = static_cast<int>(args.get_int("window", 0));
  const int jobs = static_cast<int>(args.get_int("jobs", 1));
  // A fresh random corpus never repeats a trace, so the schedule cache is
  // pure overhead here; leave it off unless --cache asks otherwise.
  const bool cache = args.get_bool("cache", false);
  const std::string json_path = args.get_string("json", "");
  const double max_ms = args.get_double("max-ms", 0.0);
  const double max_rss_mb = args.get_double("max-rss-mb", 0.0);
  if (args.report_unknown("bench_corpus_scale")) return 2;
  ScheduleCache::global().set_enabled(cache);

  std::size_t chunks = 0;
  std::size_t traces = 0;
  long long cycles_before = 0;
  long long cycles_after = 0;

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t insts =
      random_ir_program_chunks(params, [&](Program&& prog, std::size_t) {
        const Cfg cfg(prog);
        const CompiledProgram compiled =
            compile_program(cfg, *machine, window, /*verify=*/false, jobs);
        ++chunks;
        traces += compiled.traces.size();
        cycles_before += compiled.hot_trace_cycles_before;
        cycles_after += compiled.hot_trace_cycles_after;
      });
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double peak_rss_mb =
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);

  std::printf(
      "corpus_scale: %zu blocks (%zu insts) in %zu chunks -> %zu traces, "
      "hot-trace cycles %lld -> %lld, %.0f ms, peak RSS %.1f MiB\n",
      params.num_blocks, insts, chunks, traces, cycles_before, cycles_after,
      wall_ms, peak_rss_mb);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "bench_corpus_scale: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << "{\"benchmark\": \"corpus_scale\", \"blocks\": "
        << params.num_blocks << ", \"chunk\": " << params.blocks_per_chunk
        << ", \"seed\": " << params.seed << ", \"insts\": " << insts
        << ", \"chunks\": " << chunks << ", \"traces\": " << traces
        << ", \"machine\": \"" << machine_name << "\", \"jobs\": " << jobs
        << ", \"cycles_before\": " << cycles_before
        << ", \"cycles_after\": " << cycles_after << ", \"wall_ms\": "
        << wall_ms << ", \"peak_rss_mb\": " << peak_rss_mb << "}\n";
  }

  // Budget gates: nonzero exit turns a regression into a red CI run.
  int rc = 0;
  if (max_ms > 0 && wall_ms > max_ms) {
    std::fprintf(stderr,
                 "bench_corpus_scale: wall clock %.0f ms exceeds budget "
                 "%.0f ms\n",
                 wall_ms, max_ms);
    rc = 1;
  }
  if (max_rss_mb > 0 && peak_rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "bench_corpus_scale: peak RSS %.1f MiB exceeds budget "
                 "%.1f MiB\n",
                 peak_rss_mb, max_rss_mb);
    rc = 1;
  }
  return rc;
}
