// Procedure Merge (paper Fig. 7).
//
// Schedules old ∪ new so that instructions of the incoming block only fill
// idle slots of the retained suffix, never displace it:
//
//   1. schedule old ∪ new under one huge deadline D — its makespan T is a
//      lower bound for any legal schedule of the union,
//   2. cap old deadlines at min(previous deadline, T_old) where T_old is the
//      makespan of scheduling `old` alone, give every new node deadline T,
//   3. if infeasible, relax the new nodes' deadlines by +1 until the Rank
//      Algorithm finds a feasible schedule (the minimum such relaxation).
//
// Step 3 is implemented as galloping (1, 2, 4, …) plus bisection on the
// relax amount in the restricted case, where feasibility is monotone in the
// relaxation; heuristic regimes (latencies > 1, typed units, long ops) keep
// the original +1 linear scan so the accepted relaxation is unchanged.  See
// docs/PERFORMANCE.md.
#pragma once

#include <memory>

#include "core/deadlines.hpp"
#include "core/rank.hpp"

namespace ais {

struct MergeResult {
  /// Feasible schedule of old ∪ new.
  Schedule schedule;
  Time makespan = 0;
  /// Deadlines of old ∪ new after merging (old caps + relaxed new deadline).
  DeadlineMap deadlines;
  /// Ranks from the final feasible run (inputs to later passes).
  std::vector<Time> rank;
  /// Relaxation amount of the accepted schedule: new-node deadlines ended at
  /// t_lower + relax.  Minimal in the restricted case.
  Time relax = 0;
  /// The session over old ∪ new that produced `schedule` — the seed's
  /// session when it was adopted, else one built here.  Its rank cache
  /// holds the last probe's deadlines, which may differ from `deadlines`;
  /// Delay_Idle_Slots continues on it (see delay_idle_slots).
  std::unique_ptr<RankSession> session;
};

/// Pre-scheduled substrate for the incoming block, produced ahead of time by
/// the lookahead prescheduler (possibly on a thread-pool worker): a
/// standalone RankSession over exactly the new nodes whose ranks were warmed
/// by run() under the uniform deadline `huge`, plus that run's result.
/// merge_blocks consumes it only when it can prove byte-identity with the
/// unseeded path: `huge` must match merge's own lower-pass deadline and no
/// distance-0 edge may run from a new node into `old_nodes` (otherwise the
/// standalone ranks/closure rows would differ from the union's).  With no
/// old nodes the session is adopted outright: it moves into
/// MergeResult::session.  Otherwise it is read as a closure and rank donor
/// and stays here.  Either way a seed is good for one merge.
struct MergeSeed {
  std::unique_ptr<RankSession> session;
  /// run() result of `session` under uniform `huge` deadlines with the
  /// same RankOptions the merge will use; moved from on adoption.
  RankResult* standalone = nullptr;
  Time huge = 0;
};

/// Merges `old_nodes` (with current deadlines in `deadlines`, scheduled
/// alone in `t_old` cycles) with `new_nodes`.  `deadlines` entries of new
/// nodes are ignored on input.  `huge` is the artificial deadline D.
/// `seed`, when usable (see MergeSeed), only changes how the answer is
/// computed — never the answer.
MergeResult merge_blocks(const RankScheduler& scheduler,
                         const NodeSet& old_nodes, const NodeSet& new_nodes,
                         const DeadlineMap& deadlines, Time t_old, Time huge,
                         const RankOptions& opts = {}, MergeSeed* seed = nullptr);

}  // namespace ais
