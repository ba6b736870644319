// cli_files: one aisc process per file, run serially with default flags,
// over seeded function files (--mode cfg, 16-128 blocks) and single-block
// loop bodies (--mode loop, paper §5.2.3).  Every operation pays process
// start, static initialisation, first touch and a cold schedule cache.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "common.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "driver/function_compiler.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

namespace perfbench {
namespace {

using namespace ais;

/// Function files of 16, 32, ..., 128 blocks, kFilesPerSize of each size:
/// every seed has the same sizes, and only the code in them changes.  With
/// several files of each size, the latency percentiles (p99 lies among the
/// largest files) average over several programs rather than one.
constexpr int kCfgSizes = 8;
constexpr int kCfgStride = 16;
constexpr int kFilesPerSize = 6;
constexpr int kCfgInstsPerBlock = 8;
constexpr int kLoopFiles = 96;
constexpr int kLoopInsts = 12;
constexpr int kSetupRuns = 11;
/// Latency percentiles need this many operations (ten beyond p99).
constexpr std::size_t kMinOps = 1000;
/// In-process replays per file in the traced run, at least; spans are
/// medians over them.
constexpr std::size_t kMinReplays = 3;

struct File {
  std::string path;
  std::string text;
  bool loop = false;
  Program program;  // the input as aisc parses it
};

std::vector<File> make_files(const Options& opts) {
  std::vector<File> files;
  Prng prng(sub_seed(opts.seed, 10));
  for (int i = 0; i < kCfgSizes * kFilesPerSize; ++i) {
    RandomIrProgramParams p;
    p.block.num_insts = kCfgInstsPerBlock;
    p.num_blocks = static_cast<std::size_t>((i % kCfgSizes + 1) * kCfgStride);
    p.blocks_per_chunk = p.num_blocks;
    p.seed = sub_seed(opts.seed, 100 + static_cast<std::uint64_t>(i));
    File f;
    random_ir_program_chunks(p, [&](Program&& prog, std::size_t) {
      f.text = render(prog.blocks);
    });
    files.push_back(std::move(f));
  }
  RandomIrParams loop_params;
  loop_params.num_insts = kLoopInsts;
  for (int i = 0; i < kLoopFiles; ++i) {
    File f;
    f.loop = true;
    f.text = render(random_ir_loop(prng, loop_params).body.blocks);
    files.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].path = opts.work_dir + "/f" + std::to_string(i) + ".s";
    files[i].program = parse_program(files[i].text);
    std::ofstream(files[i].path) << files[i].text;
  }
  return files;
}

std::vector<std::string> aisc_argv(const Options& opts, const File& f) {
  return {opts.exec_probe, opts.aisc, "--in", f.path, "--mode",
          f.loop ? "loop" : "cfg"};
}

/// One aisc process on one file, exec to exit, as exec_probe measured it.
struct Op {
  bool ok = false;
  std::string out;
  double wall_us = 0;
  double cpu_s = 0;
  double max_rss_mb = 0;
};

Op run_aisc(const std::vector<std::string>& argv, Result* result) {
  Op op;
  ++result->attempted;
  int out_fd = -1;
  const pid_t pid = spawn(argv, &out_fd, "", "/dev/null");
  if (pid < 0) {
    result->fail("exec_probe did not start");
    return op;
  }
  op.out = read_all(out_fd);
  const ExitStatus probe = wait_child(pid, 0);
  // The probe's last line: "#exec <status> <wall ns> <user us> <sys us>
  // <max rss KiB>".
  const std::size_t at = op.out.rfind("#exec ");
  int status = 0;
  long long wall_ns = 0, user_us = 0, sys_us = 0, rss_kib = 0;
  if (!probe.clean() || at == std::string::npos ||
      std::sscanf(op.out.c_str() + at, "#exec %d %lld %lld %lld %lld", &status,
                  &wall_ns, &user_us, &sys_us, &rss_kib) != 5) {
    result->fail("exec_probe " + argv[3] + ": " + probe.describe());
    return op;
  }
  op.out.resize(at);
  ExitStatus aisc;
  aisc.reaped = true;
  aisc.status = status;
  if (!aisc.clean()) {
    result->fail("aisc " + argv[3] + ": " + aisc.describe());
    return op;
  }
  op.wall_us = static_cast<double>(wall_ns) * 1e-3;
  op.cpu_s = static_cast<double>(user_us + sys_us) * 1e-6;
  op.max_rss_mb = static_cast<double>(rss_kib) / 1024.0;
  op.ok = true;
  return op;
}

struct Passes {
  std::vector<Result::Window> windows;  // one per pass
  double max_rss_mb = 0;
  std::uint64_t ops = 0;
};

/// Runs every file once, in a seeded order, as one pass (one window).
/// Returns false when no operation succeeded.
bool run_pass(const Options& opts, const std::vector<File>& files,
              const std::vector<std::size_t>& order, OutputCheck* outputs,
              Passes* p, Result* result) {
  Result::Window w;
  const StealMeter steal(pinned_cpu());
  for (const std::size_t i : order) {
    const File& f = files[i];
    const Op op = run_aisc(aisc_argv(opts, f), result);
    if (!op.ok) continue;
    w.op_us.push_back(op.wall_us);
    w.wall_s += op.wall_us * 1e-6;
    w.cpu_s += op.cpu_s;
    w.blocks += f.program.blocks.size();
    p->max_rss_mb = std::max(p->max_rss_mb, op.max_rss_mb);
    ++p->ops;
    outputs->check(i, op.out, [&] {
      return f.loop ? check_loop_output(Loop{Trace{f.program.blocks}}, op.out)
                    : check_program_output(f.program, op.out);
    }, result);
  }
  if (w.op_us.empty()) return false;
  w.steal_frac = steal.frac();
  p->windows.push_back(std::move(w));
  return true;
}

double mean_op_us(const Passes& p) {
  double sum = 0;
  for (const Result::Window& w : p.windows) sum += w.wall_s * 1e6;
  return p.ops > 0 ? sum / static_cast<double>(p.ops) : 0;
}

/// Field-wise median of replays of one file.
CompileSpans median_spans(const std::vector<CompileSpans>& reps) {
  const auto field = [&](double CompileSpans::*m) {
    std::vector<double> v;
    for (const CompileSpans& s : reps) v.push_back(s.*m);
    return median(v);
  };
  CompileSpans s;
  s.select_us = field(&CompileSpans::select_us);
  s.deps_us = field(&CompileSpans::deps_us);
  s.key_us = field(&CompileSpans::key_us);
  s.lookup_us = field(&CompileSpans::lookup_us);
  s.schedule_us = field(&CompileSpans::schedule_us);
  s.solve_us = field(&CompileSpans::solve_us);
  s.sim_us = field(&CompileSpans::sim_us);
  s.lookups = reps.front().lookups;
  s.hits = reps.front().hits;
  return s;
}

/// In-process timings of what aisc does with one file, one per replay.
struct FileReplays {
  std::vector<double> parse_us, cfg_us, compile_us, loop_us;
  std::vector<CompileSpans> spans;
};

/// Replays what aisc does with each file in this process, each public call
/// timed on its own and the cache cleared first, as a fresh aisc's is.
void replay_files(const std::vector<File>& files,
                  std::vector<FileReplays>* replays) {
  ScheduleCache& cache = ScheduleCache::global();
  for (std::size_t i = 0; i < files.size(); ++i) {
    const File& f = files[i];
    FileReplays& r = (*replays)[i];
    Program prog;
    r.parse_us.push_back(time_us([&] { prog = parse_program(f.text); }));
    if (f.loop) {
      Loop l;
      l.body.blocks = prog.blocks;
      r.loop_us.push_back(time_us([&] { (void)ais::schedule(l, machine()); }));
      continue;
    }
    cache.clear();
    std::optional<Cfg> cfg;
    r.cfg_us.push_back(time_us([&] { cfg.emplace(prog); }));
    r.compile_us.push_back(time_us([&] {
      (void)compile_program(*cfg, machine(), 0, false, 1);
    }));
    cache.clear();
    r.spans.push_back(replay_compile_program(*cfg));
  }
}

/// Splits the traced passes' time per operation into layers, from the
/// medians of each file's replays.
void build_ledger(const std::vector<File>& files, const Passes& traced,
                  const std::vector<FileReplays>& replays, Result* result) {
  double parse_us = 0, cfg_us = 0, compile_self_us = 0, loop_us = 0;
  CompileSpans spans;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileReplays& r = replays[i];
    parse_us += median(r.parse_us);
    if (files[i].loop) {
      loop_us += median(r.loop_us);
    } else {
      const CompileSpans children = median_spans(r.spans);
      cfg_us += median(r.cfg_us);
      compile_self_us += median(r.compile_us) - children.select_us -
                         children.schedule_us - children.sim_us;
      spans += children;
    }
  }
  const double n = static_cast<double>(files.size());
  Ledger ledger;
  ledger.self("ir.parse_us", parse_us / n);
  ledger.self("cfg.build_us", cfg_us / n);
  ledger.self("core.loop_us", loop_us / n);
  add_compile_spans(&ledger, spans, compile_self_us, n);

  // The program's own counters over one pass, telemetry on.
  ScheduleCache& cache = ScheduleCache::global();
  begin_obs_counting();
  for (const File& f : files) {
    cache.clear();
    const Program prog = parse_program(f.text);
    if (f.loop) {
      Loop l;
      l.body.blocks = prog.blocks;
      (void)ais::schedule(l, machine());
    } else {
      const Cfg cfg(prog);
      (void)compile_program(cfg, machine(), 0, false, 1);
    }
  }
  add_obs_counters(&ledger);
  end_obs_counting();

  ledger.finish(mean_op_us(traced), "cli.process_us", result);
}

}  // namespace

void run_cli_files(const Options& opts, Result* result) {
  const std::vector<File> files = make_files(opts);
  std::vector<std::size_t> order(files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Prng shuffle(sub_seed(opts.seed, 11));
  shuffle.shuffle(order);
  OutputCheck outputs(files.size());

  if (!opts.trace) {
    // Set-up: aisc exec to exit on a one-block file.
    const std::string trivial = opts.work_dir + "/trivial.s";
    std::ofstream(trivial) << "block entry:\n  ADD r1, r2, r3\n";
    for (int i = 0; i < kSetupRuns; ++i) {
      const Op op =
          run_aisc({opts.exec_probe, opts.aisc, "--in", trivial}, result);
      if (op.ok) result->setup_s.push_back(op.wall_us * 1e-6);
    }
  }

  const auto pass_work = [&] {
    Work w;
    for (std::size_t i = 0; i < files.size(); ++i) w += outputs.work(i);
    return w;
  };
  Passes p;
  if (opts.trace) {
    // Passes alternate with in-process replays of the same files, so that
    // a drift in host speed falls on the end-to-end time and the spans
    // alike.
    std::vector<FileReplays> replays(files.size());
    const Clock::time_point t0 = Clock::now();
    while (p.windows.size() < kMinReplays || seconds_since(t0) < opts.seconds) {
      if (!run_pass(opts, files, order, &outputs, &p, result)) return;
      replay_files(files, &replays);
    }
    result->work = pass_work();
    build_ledger(files, p, replays, result);
    return;
  }

  const Clock::time_point t0 = Clock::now();
  while (p.ops < kMinOps || seconds_since(t0) < opts.seconds) {
    if (!run_pass(opts, files, order, &outputs, &p, result)) break;
  }
  result->windows = p.windows;
  rates_from_windows(result);
  result->peak_rss_mb = p.max_rss_mb;
  result->passes = p.windows.size();
  result->work = pass_work();
}

}  // namespace perfbench
