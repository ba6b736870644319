// serve_warm: aisd with its default flags on a private unix socket, driven
// closed-loop by two connections over a seeded pool of 16 trace bodies that
// set-up has already compiled once, so nearly every request is a
// schedule-cache hit.
#include <signal.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/schedule_cache.hpp"
#include "driver/anticipatory.hpp"
#include "ir/depbuild.hpp"
#include "server/client.hpp"
#include "server/compile_service.hpp"
#include "server/protocol.hpp"
#include "support/prng.hpp"
#include "workloads/random_ir.hpp"

namespace perfbench {
namespace {

using namespace ais;

constexpr int kPoolBodies = 16;
constexpr int kBlocksPerBody = 4;
constexpr int kInstsPerBlock = 12;
constexpr int kConnections = 2;
/// Requests each connection sends per pass.
constexpr int kSequenceLength = 64;
/// Daemon start/stop cycles in an untraced run; set-up is timed on each,
/// and each lifetime is one window of the end-to-end numbers.
constexpr int kLifecycles = 7;
constexpr double kShutdownTimeoutS = 10;
/// Rounds of in-process replay per body in the traced run.
constexpr int kReplayRounds = 100;

struct Pool {
  std::vector<std::string> bodies;
  std::vector<Trace> traces;           // each body as the daemon parses it
  std::vector<std::string> payloads;   // encoded COMPILE requests
  std::vector<std::vector<int>> sequences;  // body index per request, per connection
  std::vector<int> uses;               // requests per body in one pass
};

Pool make_pool(std::uint64_t seed) {
  Pool pool;
  Prng prng(sub_seed(seed, 1));
  RandomIrParams params;
  params.num_insts = kInstsPerBlock;
  for (int i = 0; i < kPoolBodies; ++i) {
    const Trace t = random_ir_trace(prng, params, kBlocksPerBody);
    pool.bodies.push_back(render(t.blocks));
    pool.traces.push_back(Trace{parse_program(pool.bodies.back()).blocks});
    server::Request req;
    req.verb = server::kVerbCompile;
    req.body = pool.bodies.back();
    pool.payloads.push_back(req.encode());
  }
  Prng order(sub_seed(seed, 2));
  pool.uses.assign(kPoolBodies, 0);
  pool.sequences.resize(kConnections);
  for (std::vector<int>& seq : pool.sequences) {
    for (int k = 0; k < kSequenceLength; ++k) {
      seq.push_back(static_cast<int>(order.index(kPoolBodies)));
      ++pool.uses[static_cast<std::size_t>(seq.back())];
    }
  }
  return pool;
}

Work pass_work(const Pool& pool, const OutputCheck& outputs) {
  Work w;
  for (int b = 0; b < kPoolBodies; ++b) {
    for (int u = 0; u < pool.uses[static_cast<std::size_t>(b)]; ++u) {
      w += outputs.work(static_cast<std::size_t>(b));
    }
  }
  return w;
}

/// One aisd process; killed and reaped on destruction if still running.
class Daemon {
 public:
  Daemon(const Options& opts, int index)
      : aisd_(opts.aisd),
        socket_(opts.work_dir + "/d" + std::to_string(index) + ".sock"),
        log_(opts.work_dir + "/aisd" + std::to_string(index) + ".log") {}
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      wait_child(pid_, kShutdownTimeoutS);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start() {
    pid_ = spawn({aisd_, "--socket", socket_}, nullptr, "/dev/null", log_);
    return pid_ > 0;
  }

  /// Graceful stop through the SHUTDOWN verb; the exit status must be 0.
  ExitStatus shutdown(server::Client& control, bool* acknowledged) {
    server::Request req;
    req.verb = server::kVerbShutdown;
    server::Response resp;
    std::string error;
    *acknowledged = control.call(req, &resp, &error) && resp.ok;
    control.close();
    const ExitStatus st = wait_child(pid_, kShutdownTimeoutS);
    pid_ = -1;
    return st;
  }

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  std::string aisd_;
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

struct Load {
  std::vector<double> rtt_us;  // each timed request, as the client saw it
  double wall_s = 0;
  double cpu_s = 0;
  double steal_frac = 0;
  std::uint64_t blocks = 0;
};

/// Drives the daemon closed-loop from kConnections connections for
/// `seconds`, checking every reply against the verified output of its body.
Load run_load(const Pool& pool, const OutputCheck& outputs,
              const std::string& socket, pid_t pid, double seconds,
              Result* result) {
  std::vector<server::Client> clients(kConnections);
  std::vector<Result> local(kConnections);
  std::vector<Load> loads(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    std::string error;
    if (!clients[static_cast<std::size_t>(c)].connect(socket, &error)) {
      ++result->attempted;
      result->fail("connect: " + error);
      return {};
    }
  }
  const double cpu0 = process_cpu_seconds(pid);
  const StealMeter steal(pinned_cpu());
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      server::Client& client = clients[ci];
      Result& r = local[ci];
      Load& load = loads[ci];
      const std::vector<int>& seq = pool.sequences[ci];
      server::Response resp;
      std::string error;
      for (std::size_t k = 0;; ++k) {
        const int b = seq[k % seq.size()];
        const auto bi = static_cast<std::size_t>(b);
        ++r.attempted;
        const Clock::time_point a = Clock::now();
        const bool sent = client.send_payload(pool.payloads[bi], &error) &&
                          client.receive(&resp, &error);
        const Clock::time_point z = Clock::now();
        if (!sent) {
          r.fail("transport: " + error);
          break;
        }
        if (!resp.ok) {
          r.fail("ERR " + resp.message);
        } else {
          load.rtt_us.push_back(micros(a, z));
          load.blocks += kBlocksPerBody;
          if (resp.asm_text != outputs.text(bi)) {
            const Checked chk = check_trace_output(pool.traces[bi], resp.asm_text);
            if (chk.ok) {
              r.mark_invalid("reply for body " + std::to_string(b) +
                             " differs from its first reply");
            } else {
              r.fail("body " + std::to_string(b) + ": " + chk.error);
            }
          }
        }
        if (z >= deadline) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Load out;
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_seconds(pid) - cpu0;
  out.steal_frac = steal.frac();
  for (int c = 0; c < kConnections; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    result->attempted += local[ci].attempted;
    result->failed += local[ci].failed;
    for (std::string& why : local[ci].invalid) result->invalid.push_back(why);
    out.rtt_us.insert(out.rtt_us.end(), loads[ci].rtt_us.begin(),
                      loads[ci].rtt_us.end());
    out.blocks += loads[ci].blocks;
  }
  return out;
}

/// Starts a daemon, waits for PING, warms its cache with every body, runs a
/// timed load for `seconds`, and stops it with SHUTDOWN.  Returns false
/// when the daemon never became ready.
bool lifecycle(const Options& opts, const Pool& pool, OutputCheck* outputs,
               int index, double seconds, Result* result, Load* load,
               double* peak_rss_mb) {
  Daemon daemon(opts, index);
  const Clock::time_point t0 = Clock::now();
  ++result->attempted;
  if (!daemon.start()) {
    result->fail("aisd did not start");
    return false;
  }
  server::Client control;
  control.set_connect_retry_ms(20'000);
  std::string error;
  server::Request ping;
  ping.verb = server::kVerbPing;
  server::Response resp;
  if (!control.connect(daemon.socket(), &error) ||
      !control.call(ping, &resp, &error) || !resp.ok) {
    result->fail("aisd not ready: " + error);
    return false;
  }
  std::vector<server::Response> warm(kPoolBodies);
  for (int b = 0; b < kPoolBodies; ++b) {
    ++result->attempted;
    if (!control.send_payload(pool.payloads[static_cast<std::size_t>(b)],
                              &error) ||
        !control.receive(&warm[static_cast<std::size_t>(b)], &error)) {
      result->fail("warm-up transport: " + error);
      return false;
    }
  }
  result->setup_s.push_back(seconds_since(t0));

  for (int b = 0; b < kPoolBodies; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (!warm[bi].ok) {
      result->fail("warm-up ERR " + warm[bi].message);
      continue;
    }
    outputs->check(bi, warm[bi].asm_text, [&] {
      return check_trace_output(pool.traces[bi], warm[bi].asm_text);
    }, result);
  }
  for (int b = 0; b < kPoolBodies; ++b) {
    if (!outputs->verified(static_cast<std::size_t>(b))) return false;
  }

  *load = run_load(pool, *outputs, daemon.socket(), daemon.pid(), seconds,
                   result);
  *peak_rss_mb = process_peak_rss_mb(daemon.pid());

  ++result->attempted;
  bool acknowledged = false;
  const ExitStatus st = daemon.shutdown(control, &acknowledged);
  if (!acknowledged) result->fail("SHUTDOWN was not acknowledged");
  if (!st.clean()) result->fail("aisd shutdown: " + st.describe());
  return true;
}

double mean_rtt(const Load& load) {
  double sum = 0;
  for (const double us : load.rtt_us) sum += us;
  return load.rtt_us.empty() ? 0 : sum / static_cast<double>(load.rtt_us.size());
}

/// In-process replay of the hit path on every body: the public functions
/// aisd's service calls, each timed on its own.
void build_ledger(const Pool& pool, const Load& traced, Result* result) {
  ScheduleCache& cache = ScheduleCache::global();
  server::WorkerScratch scratch;
  server::Response reply;
  const server::CompileOptions options;
  for (const std::string& body : pool.bodies) {
    server::compile_ir(body, options, scratch, &reply);  // warm, as set-up does
  }

  std::vector<CacheKey> keys(kPoolBodies);
  enum Span { kService, kParse, kSchedule, kDeps, kKey, kLookup, kSpans };
  std::vector<std::vector<std::vector<double>>> us(
      kSpans, std::vector<std::vector<double>>(kPoolBodies));
  for (int round = 0; round < kReplayRounds; ++round) {
    for (int b = 0; b < kPoolBodies; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      const std::string& body = pool.bodies[bi];
      us[kService][bi].push_back(time_us([&] {
        server::compile_ir(body, options, scratch, &reply);
      }));
      std::string error;
      std::optional<Program> prog;
      us[kParse][bi].push_back(
          time_us([&] { prog = parse_program_or_error(body, &error); }));
      if (!prog.has_value()) {
        result->fail("replay parse: " + error);
        return;
      }
      const Trace trace{prog->blocks};
      us[kSchedule][bi].push_back(
          time_us([&] { (void)ais::schedule(trace, machine(), 0); }));
      DepGraph g;
      us[kDeps][bi].push_back(
          time_us([&] { g = build_trace_graph(trace, machine()); }));
      const TraceKeyInputs in = trace_key_inputs(g);
      us[kKey][bi].push_back(time_us(
          [&] { keys[bi] = build_trace_key(g, in.blocks, in.params); }));
      us[kLookup][bi].push_back(
          time_us([&] { (void)cache.lookup_trace(keys[bi]); }));
    }
  }
  // Per-body medians, weighted by how often a pass requests each body.
  std::vector<double> per_op(kSpans, 0);
  for (int s = 0; s < kSpans; ++s) {
    for (int b = 0; b < kPoolBodies; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      per_op[static_cast<std::size_t>(s)] +=
          median(us[static_cast<std::size_t>(s)][bi]) * pool.uses[bi];
    }
    per_op[static_cast<std::size_t>(s)] /= kConnections * kSequenceLength;
  }

  Ledger ledger;
  ledger.self("server.service_us",
              per_op[kService] - per_op[kParse] - per_op[kSchedule]);
  ledger.self("ir.parse_us", per_op[kParse]);
  ledger.self("core.schedule_us", per_op[kSchedule] - per_op[kDeps] -
                                      per_op[kKey] - per_op[kLookup]);
  ledger.self("ir.depbuild_us", per_op[kDeps]);
  ledger.self("core.cache_key_us", per_op[kKey]);
  ledger.self("core.cache_lookup_us", per_op[kLookup]);

  // The trace-cache lookups one pass makes, as the benchmark observes them.
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  for (const std::vector<int>& seq : pool.sequences) {
    for (const int b : seq) {
      ++lookups;
      if (cache.lookup_trace(keys[static_cast<std::size_t>(b)]).has_value()) ++hits;
    }
  }
  ledger.count("core.cache_lookups", static_cast<double>(lookups));
  ledger.count("core.cache_hit_frac",
               static_cast<double>(hits) / static_cast<double>(lookups));

  // The program's own counters over one pass, telemetry on.
  begin_obs_counting();
  for (const std::vector<int>& seq : pool.sequences) {
    for (const int b : seq) {
      server::compile_ir(pool.bodies[static_cast<std::size_t>(b)], options,
                         scratch, &reply);
    }
  }
  add_obs_counters(&ledger);
  end_obs_counting();

  ledger.finish(mean_rtt(traced), "server.transport_us", result);
}

}  // namespace

void run_serve_warm(const Options& opts, Result* result) {
  const Pool pool = make_pool(opts.seed);
  OutputCheck outputs(kPoolBodies);
  std::vector<double> peaks;

  if (opts.trace) {
    // One daemon and one load, then the in-process replay that splits the
    // load's time into layers.
    Load load;
    double peak = 0;
    if (lifecycle(opts, pool, &outputs, 0, opts.seconds, result, &load,
                  &peak)) {
      result->work = pass_work(pool, outputs);
      build_ledger(pool, load, result);
    }
    return;
  }

  for (int i = 0; i < kLifecycles; ++i) {
    Load load;
    double peak = 0;
    if (!lifecycle(opts, pool, &outputs, i, opts.seconds / kLifecycles, result,
                   &load, &peak)) {
      continue;
    }
    peaks.push_back(peak);
    Result::Window w;
    w.op_us = load.rtt_us;
    w.wall_s = load.wall_s;
    w.blocks = load.blocks;
    w.cpu_s = load.cpu_s;
    w.steal_frac = load.steal_frac;
    result->passes += w.op_us.size() / (kConnections * kSequenceLength);
    result->windows.push_back(std::move(w));
  }
  rates_from_windows(result);
  result->peak_rss_mb = median(peaks);
  bool all_verified = true;
  for (int b = 0; b < kPoolBodies; ++b) {
    all_verified = all_verified && outputs.verified(static_cast<std::size_t>(b));
  }
  if (all_verified) result->work = pass_work(pool, outputs);
}

}  // namespace perfbench
