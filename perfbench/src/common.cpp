#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "baselines/block_schedulers.hpp"
#include "cfg/cfg.hpp"
#include "cfg/trace_select.hpp"
#include "core/deadlines.hpp"
#include "core/lookahead.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "ir/depbuild.hpp"
#include "obs/obs.hpp"
#include "obs/stats.hpp"
#include "sim/lookahead_sim.hpp"
#include "sim/loop_sim.hpp"
#include "support/prng.hpp"
#include "verify/verify.hpp"

extern char** environ;

namespace perfbench {

using namespace ais;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "perfbench: failed: %s\n", why.c_str());
}

void Result::mark_invalid(const std::string& why) {
  if (invalid.size() < 5) std::fprintf(stderr, "perfbench: invalid: %s\n", why.c_str());
  invalid.push_back(why);
}

void rates_from_windows(Result* result) {
  std::vector<double> throughput;
  std::vector<double> cpu;
  for (const Result::Window& w : result->windows) {
    const double blocks = static_cast<double>(w.blocks);
    if (w.wall_s > 0) throughput.push_back(blocks / w.wall_s);
    if (blocks > 0) cpu.push_back(w.cpu_s * 1e6 / blocks);
  }
  result->blocks_per_s = median(throughput);
  result->cpu_us_per_block = median(cpu);
}

Work& operator+=(Work& a, const Work& b) {
  a.ops += b.ops;
  a.blocks += b.blocks;
  a.insts += b.insts;
  a.traces += b.traces;
  a.sim_cycles += b.sim_cycles;
  return a;
}

// --- defaults, inputs and outputs ------------------------------------------

const MachineModel& machine() {
  static const MachineModel* m = machine_preset("rs6000");
  if (m == nullptr) {
    std::fprintf(stderr, "perfbench: machine preset rs6000 is missing\n");
    std::exit(2);
  }
  return *m;
}

int window() { return machine().default_window(); }

std::string render(const std::vector<BasicBlock>& blocks) {
  std::string text;
  for (const BasicBlock& bb : blocks) {
    text += "block ";
    text += bb.label;
    text += ":\n";
    for (const Instruction& inst : bb.insts) {
      text += "  ";
      text += inst.to_string();
      text += '\n';
    }
  }
  return text;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t count_insts(const std::vector<BasicBlock>& blocks) {
  std::uint64_t n = 0;
  for (const BasicBlock& bb : blocks) n += bb.insts.size();
  return n;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  return splitmix64(state);
}

namespace {

/// Simulated completion of emitted code: the instruction stream exactly as
/// emitted, on the lookahead machine.
std::uint64_t emitted_trace_cycles(const Trace& emitted) {
  const DepGraph g = build_trace_graph(emitted, machine());
  std::vector<NodeId> list(g.num_nodes());
  for (std::size_t i = 0; i < list.size(); ++i) list[i] = static_cast<NodeId>(i);
  return static_cast<std::uint64_t>(
      simulated_completion(g, machine(), list, window()));
}

/// Iterations a loop body is simulated for in sim_cycles.
constexpr int kLoopSimIterations = 16;

bool parse_output(const std::string& text, Program* out, Checked* c) {
  std::string error;
  std::optional<Program> prog = parse_program_or_error(text, &error);
  if (!prog.has_value()) {
    c->error = "output does not parse: " + error;
    return false;
  }
  *out = std::move(*prog);
  return true;
}

Checked check_emitted(const Trace& input, const Trace& output) {
  Checked c;
  verify::VerifyOptions vopts;
  vopts.window = window();
  const verify::Report report =
      verify::check_emitted(input, output, machine(), vopts);
  if (!report.ok()) {
    c.error = "verifier: " + report.to_string();
    return c;
  }
  c.ok = true;
  return c;
}

}  // namespace

Checked check_trace_output(const Trace& input, const std::string& output) {
  Checked c;
  Program prog;
  if (!parse_output(output, &prog, &c)) return c;
  const Trace emitted{std::move(prog.blocks)};
  c = check_emitted(input, emitted);
  if (!c.ok) return c;
  c.work = {1, emitted.blocks.size(), count_insts(emitted.blocks), 1,
            emitted_trace_cycles(emitted)};
  return c;
}

Checked check_program_output(const Program& input, const Program& output) {
  Checked c;
  if (output.blocks.size() != input.blocks.size()) {
    c.error = "block count changed";
    return c;
  }
  for (std::size_t b = 0; b < input.blocks.size(); ++b) {
    if (output.blocks[b].label != input.blocks[b].label) {
      c.error = "block order or labels changed at block " + std::to_string(b);
      return c;
    }
  }
  // The traces partition the blocks, so checking every trace checks every
  // block; the trace list comes from the input alone.
  const Cfg in_cfg(input);
  const Cfg out_cfg(output);
  const std::vector<SelectedTrace> traces = select_traces(in_cfg);
  Work work{1, input.blocks.size(), count_insts(input.blocks), traces.size(),
            0};
  for (const SelectedTrace& t : traces) {
    const Trace emitted = materialize(out_cfg, t);
    const Checked tc = check_emitted(materialize(in_cfg, t), emitted);
    if (!tc.ok) return tc;
    work.sim_cycles += emitted_trace_cycles(emitted);
  }
  c.ok = true;
  c.work = work;
  return c;
}

Checked check_program_output(const Program& input, const std::string& output) {
  Checked c;
  Program prog;
  if (!parse_output(output, &prog, &c)) return c;
  return check_program_output(input, prog);
}

Checked check_loop_output(const Loop& input, const std::string& output) {
  Checked c;
  Program prog;
  if (!parse_output(output, &prog, &c)) return c;
  Loop emitted;
  emitted.body.blocks = std::move(prog.blocks);
  c = check_emitted(input.body, emitted.body);
  if (!c.ok) return c;
  const DepGraph g = build_loop_graph(emitted, machine());
  std::vector<NodeId> list(g.num_nodes());
  for (std::size_t i = 0; i < list.size(); ++i) list[i] = static_cast<NodeId>(i);
  const LoopSimResult sim =
      simulate_loop(g, machine(), list, window(), kLoopSimIterations);
  c.work = {1, emitted.body.blocks.size(), count_insts(emitted.body.blocks), 1,
            static_cast<std::uint64_t>(sim.completion)};
  return c;
}

// --- child processes ------------------------------------------------------

namespace {

/// Children started and not yet reaped, for the watchdog.
std::mutex g_children_mu;
std::set<pid_t> g_children;

void register_child(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.insert(pid);
}

void unregister_child(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.erase(pid);
}

}  // namespace

void start_watchdog(double deadline_s) {
  std::thread([deadline_s] {
    std::this_thread::sleep_for(std::chrono::duration<double>(deadline_s));
    std::fprintf(stderr, "perfbench: run exceeded %.0f s, stopping\n",
                 deadline_s);
    std::vector<pid_t> pids;
    {
      std::lock_guard<std::mutex> lock(g_children_mu);
      pids.assign(g_children.begin(), g_children.end());
    }
    for (const pid_t pid : pids) kill(pid, SIGKILL);
    for (const pid_t pid : pids) waitpid(pid, nullptr, 0);
    std::_Exit(3);
  }).detach();
}

pid_t spawn(const std::vector<std::string>& argv, int* stdout_fd,
            const std::string& stdout_path, const std::string& stderr_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  int pipe_fds[2] = {-1, -1};
  if (stdout_fd != nullptr) {
    if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
      posix_spawn_file_actions_destroy(&actions);
      return -1;
    }
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (stdout_fd != nullptr) {
    close(pipe_fds[1]);
    if (rc != 0) {
      close(pipe_fds[0]);
    } else {
      *stdout_fd = pipe_fds[0];
    }
  }
  if (rc != 0) return -1;
  register_child(pid);
  return pid;
}

std::string read_all(int fd) {
  std::string out;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fd);
  return out;
}

bool ExitStatus::clean() const {
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string ExitStatus::describe() const {
  if (!reaped) return "did not exit in time (killed)";
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "killed by signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

ExitStatus wait_child(pid_t pid, double timeout_s) {
  ExitStatus out;
  if (timeout_s <= 0) {
    while (waitpid(pid, &out.status, 0) < 0 && errno == EINTR) {
    }
    out.reaped = true;
    unregister_child(pid);
    return out;
  }
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const pid_t r = waitpid(pid, &out.status, WNOHANG);
    if (r == pid) {
      out.reaped = true;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (seconds_since(t0) > timeout_s) {
      kill(pid, SIGKILL);
      waitpid(pid, &out.status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  unregister_child(pid);
  return out;
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double status_kib(const std::string& status, const char* field) {
  const std::size_t at = status.find(field);
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + std::char_traits<char>::length(field),
                     nullptr);
}

}  // namespace

StealMeter::StealMeter(int cpu) : cpu_(cpu) { read(cpu_, &steal0_, &total0_); }

double StealMeter::frac() const {
  double steal = 0, total = 0;
  if (!read(cpu_, &steal, &total) || total <= total0_) return 0;
  return (steal - steal0_) / (total - total0_);
}

bool StealMeter::read(int cpu, double* steal, double* total) {
  if (cpu < 0) return false;
  std::istringstream lines(slurp("/proc/stat"));
  const std::string name = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first != name) continue;
    // user nice system idle iowait irq softirq steal ...
    double v = 0;
    *total = 0;
    for (int i = 0; fields >> v; ++i) {
      if (i < 8) *total += v;
      if (i == 7) *steal = v;
    }
    return true;
  }
  return false;
}

int pinned_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) != 1) {
    return -1;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return -1;
}

double process_cpu_seconds(pid_t pid) {
  const std::string stat = slurp("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  return status_kib(slurp("/proc/" + std::to_string(pid) + "/status"),
                    "VmHWM:") / 1024.0;
}

double self_peak_rss_mb() {
  return status_kib(slurp("/proc/self/status"), "VmHWM:") / 1024.0;
}

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// --- the layer ledger -----------------------------------------------------

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"ledger.op_us", "us"},
      {"server.transport_us", "us"},
      {"server.service_us", "us"},
      {"ir.parse_us", "us"},
      {"core.cache_key_us", "us"},
      {"core.cache_lookup_us", "us"},
      {"core.schedule_us", "us"},
      {"core.solve_us", "us"},
      {"core.loop_us", "us"},
      {"cfg.build_us", "us"},
      {"cfg.select_us", "us"},
      {"ir.depbuild_us", "us"},
      {"driver.compile_program_us", "us"},
      {"sim.simulate_us", "us"},
      {"cli.process_us", "us"},
      {"unattributed_frac", "frac"},
      {"trace_overhead_frac", "frac"},
      {"work.ops", "count"},
      {"work.blocks", "count"},
      {"work.insts", "count"},
      {"work.traces", "count"},
      {"core.cache_lookups", "count"},
      {"core.cache_hit_frac", "frac"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.bytes", "bytes"},
      {"rank.runs", "count"},
      {"rank.nodes_reranked", "count"},
      {"merge.relax_rounds", "count"},
      {"move_idle.attempts", "count"},
      {"chop.calls", "count"},
      {"sim.events", "count"},
  };
  return metrics;
}

void Ledger::self(const std::string& name, double us_per_op) {
  self_us_[name] += us_per_op;
}

void Ledger::count(const std::string& name, double value) {
  counts_[name] = value;
}

void Ledger::finish(double op_traced_us, const char* residual_name,
                    Result* result) const {
  for (const LayerMetric& m : layer_metrics()) result->layers[m.name] = 0;
  double covered = 0;
  for (const auto& [name, us] : self_us_) {
    result->layers[name] = us;
    covered += us;
  }
  const double residual = op_traced_us - covered;
  if (residual_name != nullptr) result->layers[residual_name] = residual;
  result->layers["ledger.op_us"] = op_traced_us;
  result->layers["unattributed_frac"] =
      op_traced_us > 0 ? residual / op_traced_us : 0;
  // Every span is timed in the benchmark's own replay, so the traced load
  // runs the same code as an untraced one: no overhead by construction.
  result->layers["trace_overhead_frac"] = 0;
  for (const auto& [name, value] : counts_) result->layers[name] = value;
  result->layers["work.ops"] = static_cast<double>(result->work.ops);
  result->layers["work.blocks"] = static_cast<double>(result->work.blocks);
  result->layers["work.insts"] = static_cast<double>(result->work.insts);
  result->layers["work.traces"] = static_cast<double>(result->work.traces);
}

CompileSpans& CompileSpans::operator+=(const CompileSpans& o) {
  select_us += o.select_us;
  deps_us += o.deps_us;
  key_us += o.key_us;
  lookup_us += o.lookup_us;
  schedule_us += o.schedule_us;
  solve_us += o.solve_us;
  sim_us += o.sim_us;
  lookups += o.lookups;
  hits += o.hits;
  return *this;
}

TraceKeyInputs trace_key_inputs(const DepGraph& g) {
  static const std::vector<int> no_tie_break;
  TraceKeyInputs in;
  in.blocks = blocks_of(g);
  in.params.machine = &machine();
  in.params.window = window();
  in.params.huge = huge_deadline(g, NodeSet::all(g.num_nodes()));
  in.params.tie_break = &no_tie_break;
  return in;
}

CompileSpans replay_compile_program(const Cfg& cfg) {
  ScheduleCache& cache = ScheduleCache::global();
  CompileSpans s;
  std::vector<SelectedTrace> selected;
  s.select_us += time_us([&] { selected = select_traces(cfg); });
  std::vector<Trace> traces;
  for (const SelectedTrace& sel : selected) {
    traces.push_back(materialize(cfg, sel));
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Trace& trace = traces[t];
    DepGraph g;
    s.deps_us += time_us([&] { g = build_trace_graph(trace, machine()); });
    const TraceKeyInputs in = trace_key_inputs(g);
    CacheKey key;
    s.key_us +=
        time_us([&] { key = build_trace_key(g, in.blocks, in.params); });
    bool hit = false;
    s.lookup_us += time_us([&] { hit = cache.lookup_trace(key).has_value(); });
    ++s.lookups;
    if (hit) ++s.hits;
    std::optional<ScheduledTrace> scheduled;
    s.schedule_us +=
        time_us([&] { scheduled = ais::schedule(trace, machine()); });
    if (t == 0) {
      // compile_program's hot-trace diagnostics.
      s.sim_us += time_us([&] {
        const DepGraph hot = build_trace_graph(trace, machine());
        (void)simulated_completion(
            hot, machine(),
            schedule_trace_per_block(hot, machine(),
                                     BlockScheduler::kSourceOrder),
            window());
        (void)scheduled->simulated_cycles(machine());
      });
    }
  }
  // The bypassed calls run as a sweep of their own, back to back as in a
  // compile_program call, not between inserts into the cache.
  const ScheduleCache::ScopedBypass bypass;
  for (const Trace& trace : traces) {
    s.solve_us += time_us([&] { (void)ais::schedule(trace, machine()); });
  }
  return s;
}

void add_compile_spans(Ledger* ledger, const CompileSpans& s,
                       double compile_program_self_us, double ops) {
  // Nesting: compile_program > {select, schedule, sim};
  // schedule > {depbuild, key, lookup, solve}, where the bypassed call
  // (solve) itself contains a dependence build.
  ledger->self("driver.compile_program_us", compile_program_self_us / ops);
  ledger->self("cfg.select_us", s.select_us / ops);
  ledger->self("core.schedule_us",
               (s.schedule_us - s.key_us - s.lookup_us - s.solve_us) / ops);
  ledger->self("core.solve_us", (s.solve_us - s.deps_us) / ops);
  ledger->self("ir.depbuild_us", s.deps_us / ops);
  ledger->self("core.cache_key_us", s.key_us / ops);
  ledger->self("core.cache_lookup_us", s.lookup_us / ops);
  ledger->self("sim.simulate_us", s.sim_us / ops);
  ledger->count("core.cache_lookups", static_cast<double>(s.lookups));
  ledger->count("core.cache_hit_frac",
                s.lookups > 0 ? static_cast<double>(s.hits) /
                                    static_cast<double>(s.lookups)
                              : 0);
}

void begin_obs_counting() {
  obs::reset();
  obs::set_enabled(true);
  obs::register_builtin_counters();
}

void end_obs_counting() { obs::set_enabled(false); }

void add_obs_counters(Ledger* ledger) {
  static const char* const kNames[] = {
      obs::ctr::kCacheHits,        obs::ctr::kCacheMisses,
      obs::ctr::kCacheEvictions,   obs::ctr::kCacheBytes,
      obs::ctr::kRankRuns,         obs::ctr::kRankNodesReranked,
      obs::ctr::kMergeRelaxRounds, obs::ctr::kIdleMoveAttempts,
      obs::ctr::kChopCalls,        obs::ctr::kSimEvents,
  };
  for (const char* name : kNames) {
    ledger->count(name, static_cast<double>(obs::counter_value(name)));
  }
}

}  // namespace perfbench
