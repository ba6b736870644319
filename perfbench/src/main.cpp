// perfbench — the repository's end-to-end benchmark harness.
//
//   perfbench --workload serve_warm|corpus_stream|cli_files --seed N
//             --seconds S --trace 0|1 --aisc PATH --aisd PATH
//             --exec-probe PATH --work-dir DIR --state-dir DIR
//             [--fingerprint HEX]
//             [--build-type NAME] [--cpu N]
//
// Prints a line of run facts (host, sample count, per-pass work) and then,
// as the last line of stdout, the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ledger.  perfbench/run.py builds everything and calls this.
#include <linux/perf_event.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/cli.hpp"

namespace {

using namespace perfbench;

/// A run must end within this many seconds, whatever happens.
constexpr double kRunDeadlineS = 170;
/// Request latency percentiles need at least ten samples beyond p99.
constexpr std::size_t kMinLatencySamples = 1000;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // keeps the result line valid JSON
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- host facts -----------------------------------------------------------

double burn(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return static_cast<double>(x & 1);
}

/// N CPU burners versus one: nproc when every hardware thread is a real
/// CPU, about 1 when they all share one.
double effective_cpus(unsigned nproc) {
  constexpr std::uint64_t kIterations = 30'000'000;
  volatile double sink = 0;
  const Clock::time_point t0 = Clock::now();
  sink = sink + burn(kIterations);
  const double one = seconds_since(t0);
  std::vector<std::thread> threads;
  const Clock::time_point t1 = Clock::now();
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink] { sink = sink + burn(kIterations); });
  }
  for (std::thread& t : threads) t.join();
  const double all = seconds_since(t1);
  return all > 0 ? static_cast<double>(nproc) * one / all : 0;
}

bool hardware_counters_available() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

std::string host_facts(const std::string& build_type) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream out;
  out << "{\"nproc\": " << nproc
      << ", \"effective_cpus\": " << json_number(effective_cpus(nproc))
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(build_type)
      << ", \"hw_perf_counters\": "
      << (hardware_counters_available() ? "true" : "false") << "}";
  return out.str();
}

/// Keeps the pinned CPU from going idle.  On a virtual machine an idle CPU
/// halts, and the next wake-up waits until the hypervisor runs it again
/// (counted as steal); with a SCHED_IDLE spinner the CPU never halts, and
/// any other thread that wakes preempts the spinner at once.
class IdleSpinner {
 public:
  IdleSpinner()
      : thread_([this] {
          sched_param param{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
          while (!stop_.load(std::memory_order_relaxed)) {
            __builtin_ia32_pause();
          }
        }) {}
  ~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it reads stop_
};

// --- the self-check across runs of one seed ---------------------------------

/// The exact counts this run computed, which every run of the same seed on
/// the same binaries must reproduce.
std::map<std::string, double> exact_counts(const Result& r, bool trace) {
  std::map<std::string, double> counts = {
      {"work.ops", static_cast<double>(r.work.ops)},
      {"work.blocks", static_cast<double>(r.work.blocks)},
      {"work.insts", static_cast<double>(r.work.insts)},
      {"work.traces", static_cast<double>(r.work.traces)},
      {"sim_cycles", static_cast<double>(r.work.sim_cycles)},
  };
  const auto lookups = r.layers.find("core.cache_lookups");
  if (trace && lookups != r.layers.end()) {
    counts["core.cache_lookups"] = lookups->second;
  }
  return counts;
}

/// Compares this run's exact counts with those an earlier run of the same
/// workload, seed and binaries recorded, and records any new ones.
void check_against_earlier_runs(const Options& opts, Result* r) {
  if (opts.state_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opts.state_dir, ec);
  const std::string path = opts.state_dir + "/" + opts.workload + "-" +
                           std::to_string(opts.seed) + "-" +
                           opts.fingerprint + ".txt";
  std::map<std::string, double> recorded;
  {
    std::ifstream in(path);
    std::string key;
    double value = 0;
    while (in >> key >> value) recorded[key] = value;
  }
  bool changed = false;
  for (const auto& [key, value] : exact_counts(*r, opts.trace)) {
    const auto it = recorded.find(key);
    if (it == recorded.end()) {
      recorded[key] = value;
      changed = true;
    } else if (it->second != value) {
      r->mark_invalid(key + " is " + json_number(value) +
                      " but an earlier run of this seed had " +
                      json_number(it->second));
    }
  }
  if (changed) {
    const std::string tmp = path + ".tmp" + std::to_string(getpid());
    {
      std::ofstream out(tmp);
      for (const auto& [key, value] : recorded) {
        out << key << ' ' << json_number(value) << '\n';
      }
    }
    std::filesystem::rename(tmp, path, ec);
  }
}

// --- output -----------------------------------------------------------------

void add_metric(std::ostringstream& out, bool* first, const std::string& name,
                double value, const char* unit) {
  if (!*first) out << ", ";
  *first = false;
  out << json_string(name) << ": {\"value\": " << json_number(value)
      << ", \"unit\": " << json_string(unit) << "}";
}

std::size_t latency_samples(const Result& r) {
  std::size_t n = 0;
  for (const Result::Window& w : r.windows) n += w.op_us.size();
  return n;
}

/// Latency percentile: the median of the windows' percentiles when every
/// window has at least ten samples beyond it, else the percentile of all
/// samples together.
double latency_percentile(const Result& r, double q) {
  const double needed = std::ceil(10 / (1 - q));
  std::vector<double> per_window;
  std::vector<double> pooled;
  bool every_window = !r.windows.empty();
  for (const Result::Window& w : r.windows) {
    every_window =
        every_window && static_cast<double>(w.op_us.size()) >= needed;
    per_window.push_back(percentile(w.op_us, q));
    pooled.insert(pooled.end(), w.op_us.begin(), w.op_us.end());
  }
  return every_window ? median(per_window) : percentile(pooled, q);
}

double median_steal(const Result& r) {
  std::vector<double> steal;
  for (const Result::Window& w : r.windows) steal.push_back(w.steal_frac);
  return median(steal);
}

/// One stderr line per window, to show how steady a run was.
void print_windows(const Result& r) {
  for (const Result::Window& w : r.windows) {
    const double blocks = static_cast<double>(w.blocks);
    std::fprintf(stderr,
                 "perfbench: window: %zu ops, p50 %.3f ms, p99 %.3f ms, "
                 "%.1f blocks/s, %.2f us/block, steal %.3f\n",
                 w.op_us.size(), percentile(w.op_us, 0.50) / 1e3,
                 percentile(w.op_us, 0.99) / 1e3,
                 w.wall_s > 0 ? blocks / w.wall_s : 0,
                 blocks > 0 ? w.cpu_s * 1e6 / blocks : 0, w.steal_frac);
  }
}

std::string end_to_end_metrics(const Result& r) {
  std::ostringstream out;
  bool first = true;
  add_metric(out, &first, "setup_s", median(r.setup_s), "s");
  add_metric(out, &first, "latency_p50_ms",
             latency_percentile(r, 0.50) / 1e3, "ms");
  add_metric(out, &first, "latency_p99_ms",
             latency_percentile(r, 0.99) / 1e3, "ms");
  add_metric(out, &first, "blocks_per_s", r.blocks_per_s, "blocks/s");
  add_metric(out, &first, "cpu_us_per_block", r.cpu_us_per_block, "us/block");
  add_metric(out, &first, "peak_rss_mb", r.peak_rss_mb, "MiB");
  add_metric(out, &first, "sim_cycles", static_cast<double>(r.work.sim_cycles),
             "cycles");
  return out.str();
}

std::string layer_metrics_json(const Result& r) {
  std::ostringstream out;
  bool first = true;
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = r.layers.find(m.name);
    add_metric(out, &first, m.name, it == r.layers.end() ? 0 : it->second,
               m.unit);
  }
  return out.str();
}

void print_ledger(const Result& r) {
  std::fprintf(stderr, "perfbench: ledger (per operation)\n");
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = r.layers.find(m.name);
    if (it == r.layers.end() || it->second == 0) continue;
    std::fprintf(stderr, "  %-28s %14.3f %s\n", m.name, it->second, m.unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ais::CliArgs args(argc, argv);
  if (args.has("probe-setup")) {
    return corpus_setup_probe(args.get_int("spawn-ns", 0));
  }

  Options opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.aisc = args.get_string("aisc", "");
  opts.aisd = args.get_string("aisd", "");
  opts.exec_probe = args.get_string("exec-probe", "");
  opts.work_dir = args.get_string("work-dir", "");
  opts.state_dir = args.get_string("state-dir", "");
  opts.fingerprint = args.get_string("fingerprint", "any");
  opts.self = argv[0];
  if (opts.aisc.empty() || opts.aisd.empty() || opts.exec_probe.empty() ||
      opts.work_dir.empty() || opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --aisc PATH --aisd PATH --exec-probe PATH "
                 "--work-dir DIR "
                 "[--state-dir DIR] [--fingerprint HEX] [--build-type T] "
                 "[--cpu N]\n");
    return 2;
  }
  void (*run)(const Options&, Result*) = nullptr;
  if (opts.workload == "serve_warm") run = run_serve_warm;
  if (opts.workload == "corpus_stream") run = run_corpus_stream;
  if (opts.workload == "cli_files") run = run_cli_files;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  start_watchdog(kRunDeadlineS);

  const std::string host =
      host_facts(args.get_string("build-type", "unknown"));
  // Everything from here on, and every process it starts, runs on one CPU:
  // the CPUs a shared host grants come and go with other tenants' load, and
  // cross-CPU wake-ups then dominate the latency tail.
  const int cpu = static_cast<int>(args.get_int("cpu", -1));
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::fprintf(stderr, "perfbench: cannot pin to CPU %d\n", cpu);
      return 2;
    }
  }
  Result r;
  {
    const IdleSpinner spinner;
    run(opts, &r);
  }
  std::filesystem::remove_all(opts.work_dir, ec);

  if (r.attempted == 0) r.mark_invalid("no operation was attempted");
  // corpus_stream has no requests: its latency is that of a whole
  // compile_program call, a few dozen per run (see README).
  const bool requests = opts.workload != "corpus_stream";
  if (!opts.trace && requests && latency_samples(r) < kMinLatencySamples) {
    r.mark_invalid("only " + std::to_string(latency_samples(r)) +
                   " latency samples; p99 needs " +
                   std::to_string(kMinLatencySamples));
  }
  check_against_earlier_runs(opts, &r);
  if (opts.trace) {
    print_ledger(r);
  } else {
    print_windows(r);
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"host\": %s, "
      "\"pinned_cpu\": %d, \"steal_frac\": %s, \"passes\": %llu, "
      "\"windows\": %zu, \"latency_samples\": %zu, "
      "\"setup_samples\": %zu, "
      "\"work_per_pass\": {\"ops\": %llu, \"blocks\": %llu, \"insts\": %llu, "
      "\"traces\": %llu, \"sim_cycles\": %llu}, \"invalid\": %zu}\n",
      json_string(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      host.c_str(), cpu, json_number(median_steal(r)).c_str(),
      static_cast<unsigned long long>(r.passes), r.windows.size(),
      latency_samples(r), r.setup_s.size(),
      static_cast<unsigned long long>(r.work.ops),
      static_cast<unsigned long long>(r.work.blocks),
      static_cast<unsigned long long>(r.work.insts),
      static_cast<unsigned long long>(r.work.traces),
      static_cast<unsigned long long>(r.work.sim_cycles), r.invalid.size());
  const bool correct = r.invalid.empty() && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              opts.trace ? layer_metrics_json(r).c_str()
                         : end_to_end_metrics(r).c_str());
  std::fflush(stdout);
  return 0;
}
