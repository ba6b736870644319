#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry_hook.hpp"

namespace ais::obs {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_trace_enabled{false};

/// Registry state behind one mutex: spans fire at pass granularity (a few
/// thousand per compile at most), so contention is irrelevant; counters use
/// atomics so concurrent add() never serializes on the map once registered.
/// One phase's aggregate, bumped lock-free by Span close (the mutex guards
/// only the map that owns the cell, not the cell's totals).
struct PhaseCell {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_us{0};
};

struct Registry {
  Mutex mu;
  // Node-stable maps: counter_slot / phase_cell hand out pointers to the
  // heap cells, which stay valid (and lock-free to bump) after mu is
  // released.
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters
      AIS_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<PhaseCell>> phases AIS_GUARDED_BY(mu);
  std::vector<TraceEvent> events AIS_GUARDED_BY(mu);
  std::map<std::thread::id, int> thread_ids AIS_GUARDED_BY(mu);
  // Bumped by reset() so the per-thread and per-call-site memos drop
  // pointers into the cleared maps.  Not guarded: relaxed hot-path loads,
  // release bumps.
  std::atomic<std::uint64_t> generation{1};
};

// Published by registry() so the crash path (try_visit_counters via the
// flight recorder) can reach the registry without risking an allocating
// first call from inside a signal handler.
std::atomic<Registry*> g_registry{nullptr};

Registry& registry() {
  static Registry* r = [] {
    auto* created = new Registry;  // leaked: usable during static teardown
    g_registry.store(created, std::memory_order_release);
    return created;
  }();
  return *r;
}

/// Per-thread counter-slot memo: count() on a warm name costs two map-free
/// TLS lookups and one relaxed fetch_add — the registry mutex is only taken
/// on each thread's first touch of a name (and again after reset(), which
/// invalidates every memo by bumping the registry generation).
struct TlsCounterSlots {
  std::uint64_t generation = 0;
  std::map<std::string, std::atomic<std::uint64_t>*, std::less<>> slots;
};

thread_local TlsCounterSlots t_counter_slots;

std::atomic<std::uint64_t>& counter_slot(std::string_view name) {
  Registry& r = registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (t_counter_slots.generation != gen) {
    t_counter_slots.slots.clear();
    t_counter_slots.generation = gen;
  }
  if (const auto memo = t_counter_slots.slots.find(name);
      memo != t_counter_slots.slots.end()) {
    return *memo->second;
  }
  std::atomic<std::uint64_t>* slot = nullptr;
  {
    MutexLock lock(r.mu);
    auto it = r.counters.find(std::string(name));
    if (it == r.counters.end()) {
      it = r.counters
               .emplace(std::string(name),
                        std::make_unique<std::atomic<std::uint64_t>>(0))
               .first;
    }
    slot = it->second.get();
  }
  t_counter_slots.slots.emplace(std::string(name), slot);
  return *slot;
}

/// The phase cell for `name`, registering it on first use.
PhaseCell& phase_cell(const char* name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.phases.find(name);
  if (it == r.phases.end()) {
    it = r.phases.emplace(name, std::make_unique<PhaseCell>()).first;
  }
  return *it->second;
}

/// Resolves `site`'s cached phase cell, re-registering after a reset().
/// The publish order (slot relaxed, then gen release) pairs with the
/// acquire gen load so a matching generation proves the slot points into
/// the live map.
PhaseCell& resolve_phase(SiteHandle* site, const char* name) {
  Registry& r = registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (site != nullptr && site->gen.load(std::memory_order_acquire) == gen) {
    if (void* cell = site->slot.load(std::memory_order_relaxed)) {
      return *static_cast<PhaseCell*>(cell);
    }
  }
  PhaseCell& cell = phase_cell(name);
  if (site != nullptr) {
    site->slot.store(&cell, std::memory_order_relaxed);
    site->gen.store(gen, std::memory_order_release);
  }
  return cell;
}

/// Per-thread histogram-handle memo for record_value().  No generation:
/// MetricRegistry registrations are permanent (reset_values() zeroes values
/// but never drops a series), so a memoized handle can never dangle.
thread_local std::map<std::string, Histogram*, std::less<>> t_hist_slots;

int thread_index() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  const auto [it, inserted] = r.thread_ids.emplace(
      std::this_thread::get_id(), static_cast<int>(r.thread_ids.size()));
  static_cast<void>(inserted);
  return it->second;
}

/// Span nesting depth of the current thread (opened, not yet closed).
thread_local int t_depth = 0;

/// Active CounterRecorders of the current thread, innermost last.  A plain
/// vector of non-owning pointers: recorders are stack-allocated RAII objects,
/// so push/pop order is guaranteed.
thread_local std::vector<CounterRecorder*> t_recorders;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string g_env_trace_path;  // written once by init_from_env

}  // namespace

#if AIS_OBS_ENABLED
namespace {

// ThreadPool lives in support/, which cannot link obs; it reports task
// queue-wait and run times through the TelemetrySink function-pointer hook
// instead.  obs.o is always in the link (Span/enabled() are referenced from
// every instrumented TU), so installing the sink from a static initializer
// is reliable — and an AIS_OBS=OFF build compiles this block away, leaving
// the pool unhooked.
bool sink_enabled() { return enabled(); }
void sink_value(const char* name, std::uint64_t value) {
  record_value(name, value);
}
constexpr TelemetrySink kObsSink{&sink_enabled, &sink_value};
const bool g_sink_installed = [] {
  set_telemetry_sink(&kObsSink);
  return true;
}();

}  // namespace
#endif  // AIS_OBS_ENABLED

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool trace_enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
  if (!on) g_trace_enabled.store(false, std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
  if (on) g_enabled.store(true, std::memory_order_relaxed);
}

void init_from_env() {
  const char* trace = std::getenv("AIS_TRACE");
  if (trace != nullptr && trace[0] != '\0' &&
      std::string_view(trace) != "0") {
    set_enabled(true);
    if (std::string_view(trace) == "trace") set_trace_enabled(true);
  }
  const char* path = std::getenv("AIS_TRACE_JSON");
  if (path != nullptr && path[0] != '\0') {
    g_env_trace_path = path;
    set_trace_enabled(true);
  }
  flight_init_from_env();
}

const std::string& env_trace_path() { return g_env_trace_path; }

void count(std::string_view name, std::uint64_t delta) {
  if (!t_recorders.empty()) {
    for (CounterRecorder* r : t_recorders) r->record(name, delta);
  }
  if (!enabled()) return;
  counter_slot(name).fetch_add(delta, std::memory_order_relaxed);
}

void count_cached(SiteHandle& site, std::string_view name,
                  std::uint64_t delta) {
  if (!t_recorders.empty()) {
    count(name, delta);  // per-event capture, then the registry if enabled
    return;
  }
  if (!enabled()) return;
  Registry& r = registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (site.gen.load(std::memory_order_acquire) == gen) {
    if (void* slot = site.slot.load(std::memory_order_relaxed)) {
      static_cast<std::atomic<std::uint64_t>*>(slot)->fetch_add(
          delta, std::memory_order_relaxed);
      return;
    }
  }
  std::atomic<std::uint64_t>& slot = counter_slot(name);
  site.slot.store(&slot, std::memory_order_relaxed);
  site.gen.store(gen, std::memory_order_release);
  slot.fetch_add(delta, std::memory_order_relaxed);
}

void record_value(std::string_view name, std::uint64_t value) {
  if (!enabled()) return;
  auto it = t_hist_slots.find(name);
  if (it == t_hist_slots.end()) {
    it = t_hist_slots
             .emplace(std::string(name),
                      MetricRegistry::global().histogram(name))
             .first;
  }
  it->second->record(value);
}

CounterRecorder::CounterRecorder(bool active) : active_(active) {
  if (active_) t_recorders.push_back(this);
}

CounterRecorder::~CounterRecorder() {
  if (active_) t_recorders.pop_back();
}

void CounterRecorder::record(std::string_view name, std::uint64_t delta) {
  const auto it = deltas_.find(name);
  if (it == deltas_.end()) {
    deltas_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t counter_value(std::string_view name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  const auto it = r.counters.find(std::string(name));
  return it == r.counters.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(r.counters.size());
  for (const auto& [name, value] : r.counters) {
    out.emplace_back(name, value->load(std::memory_order_relaxed));
  }
  return out;  // std::map iteration order is already sorted by name
}

bool try_visit_counters(void (*fn)(void* ctx, const char* name,
                                   std::uint64_t value),
                        void* ctx) {
  Registry* r = g_registry.load(std::memory_order_acquire);
  if (r == nullptr) return true;  // never created: nothing to visit
  if (!r->mu.try_lock()) return false;
  for (const auto& [name, value] : r->counters) {
    fn(ctx, name.c_str(), value->load(std::memory_order_relaxed));
  }
  r->mu.unlock();
  return true;
}

namespace {

/// Shared Span / DetailSpan close: folds the elapsed time into the phase
/// cell lock-free, and takes the registry mutex only in full-trace mode to
/// append the event.
void close_span(SiteHandle* site, const char* name, std::int64_t start_us) {
  const std::int64_t end_us = Stopwatch::now_us();
  --t_depth;
  // A span that outlives a set_enabled(false) still closes its books; the
  // gate only stops *new* spans from activating.
  PhaseCell& cell = resolve_phase(site, name);
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  cell.total_us.fetch_add(static_cast<std::uint64_t>(end_us - start_us),
                          std::memory_order_relaxed);
  if (trace_enabled()) {
    Registry& r = registry();
    const int tid = thread_index();
    MutexLock lock(r.mu);
    r.events.push_back(TraceEvent{name, tid, t_depth, start_us,
                                  end_us - start_us});
  }
}

}  // namespace

Span::Span(const char* name) : name_(name) {
  if (flight_enabled()) {
    flight_ = true;  // remember: the gate may flip before the destructor
    flight_record(name_, 'B');
  }
  if (!enabled()) return;
  active_ = true;
  start_us_ = Stopwatch::now_us();
  ++t_depth;
}

Span::Span(SiteHandle& site, const char* name) : name_(name), site_(&site) {
  if (flight_enabled()) {
    flight_ = true;
    flight_record(name_, 'B');
  }
  if (!enabled()) return;
  active_ = true;
  start_us_ = Stopwatch::now_us();
  ++t_depth;
}

Span::~Span() {
  if (flight_) {
    flight_record(name_, 'E',
                  active_ ? static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                       start_us_)
                          : 0);
  }
  if (!active_) return;
  close_span(site_, name_, start_us_);
}

DetailSpan::DetailSpan(SiteHandle& site, const char* name)
    : name_(name), site_(&site) {
  if (flight_enabled()) {
    flight_ = true;
    flight_record(name_, 'B');
  }
  if (!trace_enabled()) return;  // inert outside full-trace mode
  active_ = true;
  start_us_ = Stopwatch::now_us();
  ++t_depth;
}

DetailSpan::~DetailSpan() {
  if (flight_) {
    flight_record(name_, 'E',
                  active_ ? static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                       start_us_)
                          : 0);
  }
  if (!active_) return;
  close_span(site_, name_, start_us_);
}

ScopedTimer::ScopedTimer(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  start_us_ = Stopwatch::now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  record_value(name_, static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                 start_us_));
}

std::vector<PhaseTotal> phase_totals() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  std::vector<PhaseTotal> out;
  out.reserve(r.phases.size());
  for (const auto& [name, cell] : r.phases) {
    PhaseTotal agg;
    agg.name = name;
    agg.calls = cell->calls.load(std::memory_order_relaxed);
    agg.total_ms =
        static_cast<double>(cell->total_us.load(std::memory_order_relaxed)) *
        1e-3;
    out.push_back(std::move(agg));
  }
  std::sort(out.begin(), out.end(), [](const PhaseTotal& a,
                                       const PhaseTotal& b) {
    return a.total_ms > b.total_ms || (a.total_ms == b.total_ms &&
                                       a.name < b.name);
  });
  return out;
}

std::vector<TraceEvent> trace_events() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  return r.events;
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events = trace_events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const auto counters = counters_snapshot();
  std::int64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    last_ts = std::max(last_ts, e.ts_us + e.dur_us);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name)
       << "\",\"cat\":\"ais\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"args\":{\"depth\":" << e.depth << "}}";
  }
  for (const auto& [name, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(name)
       << "\",\"cat\":\"ais\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
       << last_ts << ",\"args\":{\"value\":" << value << "}}";
  }
  os << "\n]}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_chrome_trace(out);
  return out.good();
}

void reset() {
  // Callers must quiesce concurrent counting threads first (the same
  // contract the un-memoized registry had: a thread between counter lookup
  // and fetch_add would race the clear either way).
  Registry& r = registry();
  {
    MutexLock lock(r.mu);
    r.counters.clear();
    r.phases.clear();
    r.events.clear();
  }
  // Invalidate every thread's slot memo, then zero histogram values too so
  // reset() means "fresh books" for the whole telemetry layer.
  r.generation.fetch_add(1, std::memory_order_release);
  if (MetricRegistry* m = MetricRegistry::global_if_created()) {
    m->reset_values();
  }
}

}  // namespace ais::obs
