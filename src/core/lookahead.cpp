#include "core/lookahead.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/chop.hpp"
#include "core/legality.hpp"
#include "core/merge.hpp"
#include "core/move_idle.hpp"
#include "core/schedule_cache.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace ais {
namespace {

/// Dense id of `id` within `key` (key.ids is ascending).
std::uint32_t dense_index(const CacheKey& key, NodeId id) {
  const auto it = std::lower_bound(key.ids.begin(), key.ids.end(), id);
  AIS_CHECK(it != key.ids.end() && *it == id,
            "scheduled node missing from its cache key");
  return static_cast<std::uint32_t>(it - key.ids.begin());
}

/// Cold-path pre-scheduling (opts.jobs > 1): one standalone RankSession per
/// block — topological order, descendant closure, initial ranks and the
/// standalone greedy schedule — is warmed on thread-pool workers while the
/// serial Merge/Chop chain drains blocks in trace order and consumes the
/// artifacts through MergeSeed.  Each worker's rank run counts on the
/// worker's thread, like any other work.  Workers are submitted in trace
/// order, so by the time the consumer needs block i the pool has usually
/// finished it and is ahead warming later blocks.
class BlockPrescheduler {
 public:
  struct Substrate {
    std::unique_ptr<RankSession> session;
    std::optional<RankResult> standalone;
    bool ready = false;
  };

  /// Requires jobs > 1 (callers keep jobs <= 1 on the plain serial path).
  BlockPrescheduler(const RankScheduler& scheduler,
                    const std::vector<NodeSet>& blocks, Time huge,
                    const RankOptions& rank_opts, int jobs)
      : scheduler_(scheduler),
        blocks_(blocks),
        huge_(huge),
        rank_opts_(rank_opts),
        subs_(blocks.size()),
        pool_(std::min(jobs, static_cast<int>(blocks.size()) + 1)) {
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      if (blocks_[i].empty()) continue;
      pool_.submit([this, i] {
        // The expensive warm-up runs unlocked on scratch locals; only the
        // hand-off into subs_ is a critical section.
        auto session =
            std::make_unique<RankSession>(scheduler_, blocks_[i]);
        std::optional<RankResult> standalone = session->run(
            uniform_deadlines(scheduler_.graph(), huge_), rank_opts_);
        {
          MutexLock lock(mu_);
          Substrate& sub = subs_[i];
          sub.session = std::move(session);
          sub.standalone = std::move(standalone);
          sub.ready = true;
        }
        cv_.notify_all();
      });
    }
  }

  /// Blocks computed for step-cache hits are speculative waste; the pool is
  /// drained before members die either way.
  ~BlockPrescheduler() { pool_.wait_idle(); }

  /// The warmed substrate of (non-empty) block `i`; blocks until the pool
  /// delivers it.  The returned reference is safe to use unlocked: once
  /// ready, no worker touches the slot again, so the consumer has exclusive
  /// access until destruction and may move the session out.
  Substrate& take(std::size_t i) AIS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!subs_[i].ready) cv_.wait(mu_);
    return subs_[i];
  }

 private:
  const RankScheduler& scheduler_;
  const std::vector<NodeSet>& blocks_;
  const Time huge_;
  const RankOptions rank_opts_;
  std::vector<Substrate> subs_ AIS_GUARDED_BY(mu_);
  Mutex mu_;
  CondVar cv_;
  ThreadPool pool_;  // last member: joins before the state above dies
};

}  // namespace

std::vector<NodeId> LookaheadResult::priority_list() const {
  std::vector<NodeId> list;
  for (const auto& sub : per_block) {
    list.insert(list.end(), sub.begin(), sub.end());
  }
  return list;
}

std::vector<NodeSet> blocks_of(const DepGraph& g) {
  int max_block = -1;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    max_block = std::max(max_block, g.node(id).block);
  }
  std::vector<NodeSet> blocks(static_cast<std::size_t>(max_block + 1),
                              NodeSet(g.num_nodes()));
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    blocks[static_cast<std::size_t>(g.node(id).block)].insert(id);
  }
  return blocks;
}

LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const std::vector<NodeSet>& blocks,
                               const LookaheadOptions& opts) {
  AIS_OBS_SPAN("lookahead");
  const DepGraph& g = scheduler.graph();
  AIS_CHECK(!blocks.empty(), "trace needs at least one block");
  AIS_CHECK(opts.window >= 1, "window must be positive");

  const Time huge =
      opts.huge > 0 ? opts.huge : huge_deadline(g, NodeSet::all(g.num_nodes()));

  // The schedule cache memoizes this function at two granularities: the
  // whole trace and single Lookahead iterations (so repeated bodies hit even
  // inside one cold trace).  Hits are byte-identical to a fresh solve —
  // keys only match monotone relabelings of the same instance — so
  // everything below the probes is the unchanged algorithm.  A hit counts
  // as cache.hits only: the solver's counters count solves that ran.
  ScheduleCache* cache = ScheduleCache::active();
  CacheInstanceParams params;
  params.machine = &scheduler.machine();
  params.window = opts.window;
  params.huge = huge;
  params.delay_idle = opts.delay_idle;
  params.merge_deadline_caps = opts.merge_deadline_caps;
  params.do_chop = opts.do_chop;
  params.split_long_ops = opts.rank.split_long_ops;
  params.tie_break = &opts.rank.tie_break;
  // opts.jobs / opts.preschedule are deliberately absent from the key: the
  // substrate pipeline never changes the answer, so cache entries are
  // shared across every --jobs value.

  LookaheadResult out;
  bool solved_from_cache = false;
  CacheKey trace_key;
  if (cache != nullptr) {
    trace_key = build_trace_key(g, blocks, params);
    if (std::optional<TraceCacheValue> hit = cache->lookup_trace(trace_key)) {
      out.order.reserve(hit->order.size());
      for (const std::uint32_t dense : hit->order) {
        out.order.push_back(trace_key.ids[dense]);
      }
      out.diag.merged_makespans = std::move(hit->merged_makespans);
      out.diag.prefixes_emitted = hit->prefixes_emitted;
      solved_from_cache = true;
    }
  }

  if (!solved_from_cache) {
    AIS_OBS_COUNT(obs::ctr::kLookaheadBlocks, blocks.size());

    // Cold path: fan the per-block substrate work out over a pool while the
    // serial chain below consumes it.  Only worth spinning up when merges
    // will actually run (the ablation path schedules from scratch and the
    // trace-cache hit above never reaches here).
    const int jobs = clamp_jobs(opts.jobs);
    std::optional<BlockPrescheduler> presched;
    if (opts.preschedule && jobs > 1 && opts.merge_deadline_caps) {
      presched.emplace(scheduler, blocks, huge, opts.rank, jobs);
    }

    NodeSet old(g.num_nodes());
    DeadlineMap deadlines = uniform_deadlines(g, huge);
    Time t_old = 0;
    // The final suffix in its schedule order, refreshed every iteration;
    // appended to the emitted prefixes after the loop.
    std::vector<NodeId> last_suffix_order;

    for (std::size_t block_index = 0; block_index < blocks.size();
         ++block_index) {
      const NodeSet& new_nodes = blocks[block_index];
      if (new_nodes.empty()) continue;

      CacheKey step_key;
      bool step_hit = false;
      if (cache != nullptr) {
        step_key = build_step_key(g, old, new_nodes, deadlines, t_old, params);
        if (std::optional<StepCacheValue> hit = cache->lookup_step(step_key)) {
          for (const std::uint32_t dense : hit->emitted) {
            out.order.push_back(step_key.ids[dense]);
          }
          if (!hit->emitted.empty()) ++out.diag.prefixes_emitted;
          NodeSet suffix(g.num_nodes());
          last_suffix_order.clear();
          for (std::size_t i = 0; i < hit->suffix_order.size(); ++i) {
            const NodeId id = step_key.ids[hit->suffix_order[i]];
            suffix.insert(id);
            last_suffix_order.push_back(id);
            deadlines[id] = hit->suffix_deadlines[i];
          }
          // Deadlines of just-emitted nodes go stale here relative to a
          // fresh solve; nothing reads them again and later step keys only
          // serialize live (old ∪ new) nodes, so the divergence is inert.
          old = std::move(suffix);
          t_old = hit->suffix_makespan;
          out.diag.merged_makespans.push_back(hit->merged_makespan);
          step_hit = true;
        }
      }
      if (step_hit) continue;

      const std::size_t emitted_before = out.order.size();

      Schedule merged(&g, NodeSet(g.num_nodes()), 1);
      // The session that produced `merged`; Delay_Idle_Slots continues on
      // it, so each step builds one topological order and closure.
      std::unique_ptr<RankSession> session;
      if (opts.merge_deadline_caps) {
        MergeSeed seed;
        MergeSeed* seed_ptr = nullptr;
        if (presched.has_value()) {
          BlockPrescheduler::Substrate& sub = presched->take(block_index);
          seed.session = std::move(sub.session);
          seed.standalone = &*sub.standalone;
          seed.huge = huge;
          seed_ptr = &seed;
        }
        // Graft latency: how long the serial chain spends consuming one
        // prescheduled substrate.
        const std::int64_t graft_start_us =
            seed_ptr != nullptr && obs::enabled() ? Stopwatch::now_us() : -1;
        MergeResult m = merge_blocks(scheduler, old, new_nodes, deadlines,
                                     t_old, huge, opts.rank, seed_ptr);
        if (graft_start_us >= 0) {
          AIS_OBS_VALUE(obs::hist::kGraftUs,
                        static_cast<std::uint64_t>(Stopwatch::now_us() -
                                                   graft_start_us));
        }
        deadlines = std::move(m.deadlines);
        merged = std::move(m.schedule);
        session = std::move(m.session);
      } else {
        // Ablation: schedule the whole live set fresh, no displacement
        // protection for old nodes.
        session = std::make_unique<RankSession>(scheduler,
                                                set_union(old, new_nodes));
        DeadlineMap flat = uniform_deadlines(g, huge);
        RankResult r = session->run(flat, opts.rank);
        AIS_CHECK(r.feasible, "unconstrained schedule must be feasible");
        for (const NodeId id : session->active_ids()) flat[id] = r.makespan;
        deadlines = std::move(flat);
        merged = std::move(r.schedule);
      }

      if (opts.delay_idle) {
        merged =
            delay_idle_slots(*session, std::move(merged), deadlines, opts.rank);
      }
      session.reset();
      out.diag.merged_makespans.push_back(merged.makespan());

      if (opts.do_chop) {
        ChopResult c = chop(merged, deadlines, opts.window);
        out.order.insert(out.order.end(), c.emitted.begin(), c.emitted.end());
        if (!c.emitted.empty()) ++out.diag.prefixes_emitted;
        AIS_OBS_VALUE(obs::hist::kChopPrefixLen, c.emitted.size());
        old = std::move(c.suffix);
        t_old = c.suffix_makespan;
        // Rebase the retained suffix schedule implicitly: the next merge
        // re-schedules `old` from its deadlines, so only the node set, the
        // deadlines (already rebased by chop) and t_old carry forward.
      } else {
        old = merged.active();
        t_old = merged.makespan();
      }
      last_suffix_order.clear();
      for (const NodeId id : merged.permutation()) {
        if (old.contains(id)) last_suffix_order.push_back(id);
      }

      if (cache != nullptr) {
        StepCacheValue value;
        value.emitted.reserve(out.order.size() - emitted_before);
        for (std::size_t i = emitted_before; i < out.order.size(); ++i) {
          value.emitted.push_back(dense_index(step_key, out.order[i]));
        }
        value.suffix_order.reserve(last_suffix_order.size());
        value.suffix_deadlines.reserve(last_suffix_order.size());
        for (const NodeId id : last_suffix_order) {
          value.suffix_order.push_back(dense_index(step_key, id));
          value.suffix_deadlines.push_back(deadlines[id]);
        }
        value.suffix_makespan = t_old;
        value.merged_makespan = out.diag.merged_makespans.back();
        cache->insert_step(step_key, value);
      }
    }

    // Emit the final suffix in its schedule order.
    out.order.insert(out.order.end(), last_suffix_order.begin(),
                     last_suffix_order.end());

    if (cache != nullptr) {
      TraceCacheValue value;
      value.order.reserve(out.order.size());
      for (const NodeId id : out.order) {
        value.order.push_back(dense_index(trace_key, id));
      }
      value.merged_makespans = out.diag.merged_makespans;
      value.prefixes_emitted = out.diag.prefixes_emitted;
      cache->insert_trace(trace_key, value);
    }
  }

  AIS_CHECK(out.order.size() == [&] {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.size();
    return n;
  }(), "lookahead must emit every instruction exactly once");

  // Quantify the ROADMAP `window-span` open item: how often does the
  // planning order promise overlap deeper than the hardware window?  Only
  // measured under telemetry — the linear scan is off the disabled path.
  // Runs on hit and miss paths alike, so cached entries never carry it.
#if AIS_OBS_ENABLED
  if (obs::enabled()) {
    out.diag.max_inversion_span = max_inversion_span(g, out.order).span;
    obs::count(obs::ctr::kWindowSpanOverW,
               out.diag.max_inversion_span >
                       static_cast<std::size_t>(opts.window)
                   ? 1
                   : 0);
  }
#endif

  out.per_block.assign(blocks.size(), {});
  for (const NodeId id : out.order) {
    const int b = g.node(id).block;
    AIS_CHECK(b >= 0 && b < static_cast<int>(blocks.size()),
              "node block index out of range");
    AIS_CHECK(blocks[static_cast<std::size_t>(b)].contains(id),
              "node emitted into the wrong block");
    out.per_block[static_cast<std::size_t>(b)].push_back(id);
  }
  return out;
}

LookaheadResult schedule_trace(const RankScheduler& scheduler,
                               const LookaheadOptions& opts) {
  return schedule_trace(scheduler, blocks_of(scheduler.graph()), opts);
}

}  // namespace ais
