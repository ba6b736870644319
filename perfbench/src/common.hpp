// Shared pieces of the benchmark harness: run options, the per-run result
// record, output verification, child processes, statistics and the layer
// ledger.  See perfbench/README.md for what is measured and why.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/cfg.hpp"
#include "core/schedule_cache.hpp"
#include "graph/nodeset.hpp"
#include "ir/asm_parser.hpp"
#include "ir/instruction.hpp"
#include "machine/machine_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);
/// Microseconds between two time points.
double micros(Clock::time_point a, Clock::time_point b);
/// CPU seconds used so far by the calling thread.
double thread_cpu_seconds();

/// Wall time of one call to `fn` in microseconds.
template <typename Fn>
double time_us(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return micros(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string aisc;      // path of the aisc binary
  std::string aisd;      // path of the aisd binary
  std::string exec_probe;  // path of the exec_probe binary (cli_files)
  std::string self;      // path of this executable (set-up probes)
  std::string work_dir;  // private scratch directory of this run
  std::string state_dir;    // where runs of one seed compare their work
  std::string fingerprint;  // identifies the binaries under test
};

/// The exact work of one pass over a workload's inputs.  A pass is the
/// unit a run repeats until its time is up; for a given seed every pass of
/// every run must show the same numbers (the self-check).
struct Work {
  std::uint64_t ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t insts = 0;
  std::uint64_t traces = 0;  // scheduled traces plus loop bodies
  std::uint64_t sim_cycles = 0;

  bool operator==(const Work&) const = default;
};

/// Everything one run measured.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons the run is invalid (non-repeating work, too few samples...).
  std::vector<std::string> invalid;

  /// A stretch of timed work whose end-to-end numbers are computed on
  /// their own (a daemon's lifetime, one chunk, or one pass).
  struct Window {
    std::vector<double> op_us;  // latency of every timed operation
    double wall_s = 0;          // wall seconds of the timed region
    double cpu_s = 0;           // program CPU seconds in the timed region
    std::uint64_t blocks = 0;   // input blocks compiled
    double steal_frac = 0;      // share of the pinned CPU the host took
  };

  // End-to-end, from untraced work.
  std::vector<double> setup_s;  // one sample per set-up
  std::vector<Window> windows;
  double blocks_per_s = 0;
  double cpu_us_per_block = 0;
  double peak_rss_mb = 0;
  Work work;                    // per pass
  std::uint64_t passes = 0;

  // Traced run: per-layer metrics by name.
  std::map<std::string, double> layers;

  void fail(const std::string& why);        // one failed operation
  void mark_invalid(const std::string& why);
};

/// Sets blocks_per_s and cpu_us_per_block to the median over the windows.
void rates_from_windows(Result* result);

// --- the program's shipped defaults --------------------------------------

/// The machine aisc and aisd use when no --machine is given.
const ais::MachineModel& machine();
/// The lookahead window that machine defaults to.
int window();

// --- inputs and outputs ---------------------------------------------------

/// aisc's output format: `block L:` then one indented line per instruction.
std::string render(const std::vector<ais::BasicBlock>& blocks);
std::uint64_t fnv1a(std::string_view text);
std::uint64_t count_insts(const std::vector<ais::BasicBlock>& blocks);
/// Derives an independent sub-seed for stream `stream` of a workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Verdict of the independent verifier on one emitted program, plus the
/// work it represents.
struct Checked {
  bool ok = false;
  std::string error;
  Work work;  // ops = 1
};

/// Trace mode: `output` must be a legal reordering of `input`.
Checked check_trace_output(const ais::Trace& input, const std::string& output);
/// Cfg mode: every trace select_traces picks on `input` is checked.
Checked check_program_output(const ais::Program& input,
                             const ais::Program& output);
Checked check_program_output(const ais::Program& input,
                             const std::string& output);
/// Loop mode (single-block body).
Checked check_loop_output(const ais::Loop& input, const std::string& output);

/// Remembers the first verified output of each input and checks later
/// outputs against it: a byte-identical output is verified already; a
/// different one is verified again, and if it still passes, the program is
/// not deterministic and the run is invalid.
class OutputCheck {
 public:
  explicit OutputCheck(std::size_t inputs) : seen_(inputs), work_(inputs) {}

  /// `verify` returns the Checked verdict for `output`; a failed verdict
  /// counts as a failed operation.
  template <typename VerifyFn>
  void check(std::size_t input, const std::string& output, VerifyFn&& verify,
             Result* result) {
    if (!seen_[input].empty() && seen_[input] == output) return;
    const Checked c = verify();
    if (!c.ok) {
      result->fail("input " + std::to_string(input) + ": " + c.error);
    } else if (!seen_[input].empty()) {
      result->mark_invalid("output of input " + std::to_string(input) +
                           " differs between runs of the same input");
    } else {
      seen_[input] = output;
      work_[input] = c.work;
    }
  }

  bool verified(std::size_t input) const { return !seen_[input].empty(); }
  const std::string& text(std::size_t input) const { return seen_[input]; }
  const Work& work(std::size_t input) const { return work_[input]; }

 private:
  std::vector<std::string> seen_;
  std::vector<Work> work_;
};

Work& operator+=(Work& a, const Work& b);

// --- child processes ------------------------------------------------------

/// Starts `argv[0]` with stdin from /dev/null, stdout into a pipe whose read
/// end is returned in *stdout_fd (or to `stdout_path` when stdout_fd is
/// null), and stderr to `stderr_path`.  Returns the pid, or -1.
pid_t spawn(const std::vector<std::string>& argv, int* stdout_fd,
            const std::string& stdout_path, const std::string& stderr_path);

/// Reads `fd` to end of file and closes it.
std::string read_all(int fd);

struct ExitStatus {
  bool reaped = false;  // false: still running after the timeout (killed)
  int status = 0;       // waitpid status

  bool clean() const;  // exited with code 0
  std::string describe() const;
};

/// Waits up to `timeout_s` for `pid`; kills it with SIGKILL after that and
/// reaps it either way.  With `timeout_s` <= 0 it blocks (the watchdog
/// bounds the wait) and returns the moment the child exits.
ExitStatus wait_child(pid_t pid, double timeout_s);

/// Kills every child started by spawn() and not yet reaped, and exits with
/// code 3, once `deadline_s` seconds have passed (a run must end within its
/// time limit).
void start_watchdog(double deadline_s);

/// Time the host hypervisor took from one CPU ("steal"), as a share of
/// that CPU's time between two readings.
class StealMeter {
 public:
  explicit StealMeter(int cpu);
  /// Share stolen since construction (0 when /proc/stat has no reading).
  double frac() const;

 private:
  static bool read(int cpu, double* steal, double* total);
  int cpu_;
  double steal0_ = 0;
  double total0_ = 0;
};

/// The CPU this process is pinned to, or -1.
int pinned_cpu();

/// CPU seconds (user + system) and peak RSS (VmHWM) of a live process.
double process_cpu_seconds(pid_t pid);
double process_peak_rss_mb(pid_t pid);
/// Peak RSS of the calling process.
double self_peak_rss_mb();

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

// --- the layer ledger -----------------------------------------------------

/// Every per-layer metric and its unit, in output order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Builds the per-layer numbers of a traced run.  Each span is a self time
/// per operation in microseconds; the residual — traced end-to-end time per
/// operation that no span covers — is reported as `unattributed_frac` and,
/// on workloads that name it, under `residual_name` too.
class Ledger {
 public:
  void self(const std::string& name, double us_per_op);
  void count(const std::string& name, double value);

  /// `op_traced_us`: mean end-to-end time per operation in the traced
  /// run's load.  Also reports the result's per-pass work counts.
  void finish(double op_traced_us, const char* residual_name,
              Result* result) const;

 private:
  std::map<std::string, double> self_us_;
  std::map<std::string, double> counts_;
};

/// What schedule_trace passes to build_trace_key for a whole trace of `g`
/// with the shipped options.
struct TraceKeyInputs {
  std::vector<ais::NodeSet> blocks;
  ais::CacheInstanceParams params;
};
TraceKeyInputs trace_key_inputs(const ais::DepGraph& g);

/// Span sums of one in-process replay of compile_program's work, made of
/// the public calls it makes, each timed on its own: trace selection, and
/// per trace the dependence build, the cache key and lookup, the schedule
/// call with the cache as shipped (a miss inserts), the same call under
/// ScheduleCache::ScopedBypass, and the hot-trace simulation.
struct CompileSpans {
  double select_us = 0;
  double deps_us = 0;
  double key_us = 0;
  double lookup_us = 0;
  double schedule_us = 0;
  double solve_us = 0;
  double sim_us = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  CompileSpans& operator+=(const CompileSpans& o);
};
CompileSpans replay_compile_program(const ais::Cfg& cfg);

/// Adds the self times of compile_program and its children per operation,
/// from spans summed over `ops` operations and compile_program's own self
/// time summed over the same operations.
void add_compile_spans(Ledger* ledger, const CompileSpans& spans,
                       double compile_program_self_us, double ops);

/// Adds the program's own obs counters, as counted since
/// begin_obs_counting().
void add_obs_counters(Ledger* ledger);

/// Clears and enables the program's telemetry counters.
void begin_obs_counting();
void end_obs_counting();

// --- workloads ------------------------------------------------------------

void run_serve_warm(const Options& opts, Result* result);
void run_corpus_stream(const Options& opts, Result* result);
void run_cli_files(const Options& opts, Result* result);

/// Child side of the corpus_stream set-up probe.
int corpus_setup_probe(std::int64_t spawn_ns);

/// Monotonic clock reading in nanoseconds, comparable across processes.
std::int64_t monotonic_ns();

}  // namespace perfbench
