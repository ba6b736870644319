// corpus_stream: compile_program in-process on one thread over a seeded
// random_ir_program_chunks corpus, streamed chunk by chunk with the
// schedule cache at its shipped default (on).  No trace repeats, so every
// lookup misses, every solve inserts, and the LRU fills and evicts.
#include <cstdio>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "common.hpp"
#include "core/schedule_cache.hpp"
#include "driver/function_compiler.hpp"
#include "workloads/random_ir.hpp"

namespace perfbench {
namespace {

using namespace ais;

/// One pass compiles this many blocks: enough to fill the default 64 MiB
/// cache and evict from it.
constexpr std::size_t kBlocksPerPass = 32768;
/// Blocks per chunk, i.e. per compile_program call (one operation), and
/// instructions per block: bench_corpus_scale's defaults, the settings of
/// the ROADMAP's cache-on/off corpus measurement.
constexpr std::size_t kBlocksPerChunk = 4096;
constexpr int kInstsPerBlock = 8;
/// Blocks of the untimed call that does the process's lazy initialisation.
constexpr std::size_t kWarmBlocks = 64;
constexpr int kSetupProbes = 11;
constexpr std::size_t kMinPasses = 2;
constexpr double kProbeTimeoutS = 60;

RandomIrProgramParams corpus_params(std::uint64_t seed) {
  RandomIrProgramParams p;
  p.block.num_insts = kInstsPerBlock;
  p.num_blocks = kBlocksPerPass;
  p.blocks_per_chunk = kBlocksPerChunk;
  p.seed = sub_seed(seed, 3);
  return p;
}

/// Verifies each chunk's output on the first pass and holds later passes to
/// the same bytes.
class ChunkCheck {
 public:
  void check(std::size_t chunk, const Program& input, const Program& output,
             Result* result) {
    const std::uint64_t h = fnv1a(render(output.blocks));
    if (chunk < hash_.size() && hash_[chunk] == h) return;
    const Checked c = check_program_output(input, output);
    if (!c.ok) {
      result->fail("chunk " + std::to_string(chunk) + ": " + c.error);
    } else if (chunk < hash_.size()) {
      result->mark_invalid("chunk " + std::to_string(chunk) +
                           " compiled differently on a later pass");
    }
    if (chunk < hash_.size()) return;
    hash_.push_back(c.ok ? h : 0);
    work_ += c.work;
  }

  const Work& work() const { return work_; }

 private:
  std::vector<std::uint64_t> hash_;
  Work work_;
};

/// The timed side of one pass.
struct Pass {
  double op_us = 0;    // Cfg + compile_program, summed over chunks
  double cfg_us = 0;   // the Cfg part
  std::uint64_t ops = 0;
  /// One window per chunk.
  std::vector<Result::Window> windows;
};

Pass run_pass(const RandomIrProgramParams& params, ChunkCheck* check,
              Result* result) {
  ScheduleCache::global().clear();
  Pass pass;
  random_ir_program_chunks(params, [&](Program&& prog, std::size_t chunk) {
    ++result->attempted;
    Result::Window w;
    const StealMeter steal(pinned_cpu());
    const double cpu0 = thread_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const Cfg cfg(prog);
    const Clock::time_point t1 = Clock::now();
    const CompiledProgram out = compile_program(cfg, machine(), 0, false, 1);
    const Clock::time_point t2 = Clock::now();
    w.cpu_s = thread_cpu_seconds() - cpu0;
    w.op_us.push_back(micros(t0, t2));
    w.wall_s = micros(t0, t2) * 1e-6;
    w.blocks = prog.blocks.size();
    w.steal_frac = steal.frac();
    pass.op_us += micros(t0, t2);
    pass.cfg_us += micros(t0, t1);
    ++pass.ops;
    pass.windows.push_back(std::move(w));
    check->check(chunk, prog, out.program, result);
  });
  return pass;
}

/// Runs passes until `seconds` have gone by and at least kMinPasses ran.
std::vector<Pass> run_passes(const RandomIrProgramParams& params,
                             ChunkCheck* check, double seconds,
                             Result* result) {
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  while (passes.size() < kMinPasses || seconds_since(t0) < seconds) {
    passes.push_back(run_pass(params, check, result));
  }
  return passes;
}

/// Time from exec to the end of a first compile_program call, in fresh
/// processes of this executable.
void probe_setup(const Options& opts, Result* result) {
  for (int i = 0; i < kSetupProbes; ++i) {
    int out_fd = -1;
    ++result->attempted;
    const std::int64_t spawn_ns = monotonic_ns();
    const pid_t pid = spawn({opts.self, "--probe-setup", "1", "--spawn-ns",
                             std::to_string(spawn_ns)},
                            &out_fd, "", "/dev/null");
    if (pid < 0) {
      result->fail("set-up probe did not start");
      continue;
    }
    const std::string out = read_all(out_fd);
    const ExitStatus st = wait_child(pid, kProbeTimeoutS);
    const double seconds = std::strtod(out.c_str(), nullptr);
    if (!st.clean() || seconds <= 0) {
      result->fail("set-up probe: " + st.describe());
      continue;
    }
    result->setup_s.push_back(seconds);
  }
}

/// Span sums of in-process replays of whole passes.
struct Replay {
  CompileSpans spans;
  double compile_self_us = 0;  // compile_program's own time
  std::uint64_t ops = 0;
};

/// Replays one pass through the public functions compile_program calls,
/// each timed on its own, with the cache evolving as in a timed pass.
void replay_pass(const RandomIrProgramParams& params, Replay* replay) {
  ScheduleCache::global().clear();
  random_ir_program_chunks(params, [&](Program&& prog, std::size_t) {
    ++replay->ops;
    const Cfg cfg(prog);
    const CompileSpans children = replay_compile_program(cfg);
    replay->spans += children;
    // compile_program's self time, from a call that leaves the cache as it
    // is: bypassed, every trace costs exactly its bypassed schedule call.
    const ScheduleCache::ScopedBypass bypass;
    replay->compile_self_us +=
        time_us([&] { (void)compile_program(cfg, machine(), 0, false, 1); }) -
        children.select_us - children.solve_us - children.sim_us;
  });
}

void build_ledger(const RandomIrProgramParams& params,
                  const std::vector<Pass>& traced, const Replay& replay,
                  Result* result) {
  double cfg_us = 0, op_us = 0, traced_ops = 0;
  for (const Pass& p : traced) {
    cfg_us += p.cfg_us;
    op_us += p.op_us;
    traced_ops += static_cast<double>(p.ops);
  }
  Ledger ledger;
  ledger.self("cfg.build_us", cfg_us / traced_ops);
  add_compile_spans(&ledger, replay.spans, replay.compile_self_us,
                    static_cast<double>(replay.ops));

  // The program's own counters over one pass, telemetry on.
  ScheduleCache::global().clear();
  begin_obs_counting();
  random_ir_program_chunks(params, [&](Program&& prog, std::size_t) {
    const Cfg cfg(prog);
    (void)compile_program(cfg, machine(), 0, false, 1);
  });
  add_obs_counters(&ledger);
  end_obs_counting();

  ledger.finish(op_us / traced_ops, nullptr, result);
}

}  // namespace

int corpus_setup_probe(std::int64_t spawn_ns) {
  RandomIrProgramParams params = corpus_params(1);
  params.num_blocks = 1;
  params.blocks_per_chunk = 1;
  std::int64_t ready_ns = 0;
  random_ir_program_chunks(params, [&](Program&& prog, std::size_t) {
    const Cfg cfg(prog);
    (void)compile_program(cfg, machine(), 0, false, 1);
    ready_ns = monotonic_ns();
  });
  std::printf("%.9f\n", static_cast<double>(ready_ns - spawn_ns) * 1e-9);
  return 0;
}

void run_corpus_stream(const Options& opts, Result* result) {
  const RandomIrProgramParams params = corpus_params(opts.seed);
  if (!opts.trace) probe_setup(opts, result);

  // Lazy initialisation happens here, outside every timed pass.
  {
    RandomIrProgramParams warm = corpus_params(opts.seed + 1);
    warm.num_blocks = kWarmBlocks;
    random_ir_program_chunks(warm, [&](Program&& prog, std::size_t) {
      const Cfg cfg(prog);
      (void)compile_program(cfg, machine(), 0, false, 1);
    });
  }

  ChunkCheck check;
  if (opts.trace) {
    // Timed passes alternate with replays of the same pass, so that a drift
    // in host speed falls on the end-to-end time and the spans alike.
    std::vector<Pass> traced;
    Replay replay;
    const Clock::time_point t0 = Clock::now();
    while (traced.size() < kMinPasses || seconds_since(t0) < opts.seconds) {
      traced.push_back(run_pass(params, &check, result));
      replay_pass(params, &replay);
    }
    result->work = check.work();
    build_ledger(params, traced, replay, result);
    return;
  }

  const std::vector<Pass> passes =
      run_passes(params, &check, opts.seconds, result);
  for (const Pass& p : passes) {
    result->windows.insert(result->windows.end(), p.windows.begin(),
                           p.windows.end());
  }
  rates_from_windows(result);
  result->passes = passes.size();
  result->peak_rss_mb = self_peak_rss_mb();
  result->work = check.work();
}

}  // namespace perfbench
