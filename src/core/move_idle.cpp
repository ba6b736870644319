#include "core/move_idle.hpp"

#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace ais {
namespace {

/// Buffers of one Delay_Idle_Slots sweep, allocated on its first attempt
/// and reused by every later one.
struct MoveIdleScratch {
  explicit MoveIdleScratch(const MachineModel& machine) {
    // Class-major unit -> FU class mapping (same layout as greedy_from_list).
    for (int c = 0; c < machine.num_fu_classes(); ++c) {
      for (int k = 0; k < machine.fu_count(c); ++k) unit_class.push_back(c);
    }
  }

  std::vector<int> unit_class;
  /// Trial deadlines; swapped into the caller's map on success.
  DeadlineMap trial;
  std::vector<NodeId> sigma;
  std::vector<Time> rank;
};

/// Restores the session's rank-cache snapshot on scope exit unless the
/// trial committed.  Failed deadline trials thereby never pollute the
/// session cache: the next trial diffs against the base deadlines instead
/// of paying a second incremental pass to undo this trial's caps.
class SessionRestore {
 public:
  explicit SessionRestore(RankSession& session) : session_(&session) {}
  SessionRestore(const SessionRestore&) = delete;
  SessionRestore& operator=(const SessionRestore&) = delete;
  ~SessionRestore() {
    if (session_ != nullptr) session_->restore_snapshot();
  }
  void commit() { session_ = nullptr; }

 private:
  RankSession* session_;
};

/// Move_Idle_Slot on `s` in place.  On success the new schedule and the
/// committed deadlines are swapped into `s` and `deadlines`, `slot` becomes
/// the delayed slot, and true is returned.  On failure `s`, `deadlines`,
/// `slot` and the session's rank cache are left as they were.
bool move_idle_in_place(RankSession& session, Schedule& s,
                        DeadlineMap& deadlines, IdleSlot& slot,
                        const RankOptions& opts, MoveIdleScratch& scratch) {
  AIS_OBS_COUNT(obs::ctr::kIdleMoveAttempts);
  const NodeSet& active = s.active();
  AIS_CHECK(session.active() == active,
            "session active set must match the schedule");
  const int slot_class =
      scratch.unit_class[static_cast<std::size_t>(slot.unit)];
  const std::size_t index = s.idle_slot_index(slot);

  // Prime the cache at the *uncapped* deadlines and snapshot it; the trial
  // below is speculative, and SessionRestore rolls the cache back to this
  // state on every failure path.
  session.compute_ranks(deadlines, opts);
  session.snapshot();
  SessionRestore restore(session);

  DeadlineMap& trial = scratch.trial;
  trial = deadlines;

  // sigma: nodes currently scheduled before the slot on units of the slot's
  // class.  Capping their deadlines at the slot time guarantees no earlier
  // idle slot moves earlier (they must all still complete by slot.time).
  std::vector<NodeId>& sigma = scratch.sigma;
  sigma.clear();
  for (const NodeId y : session.active_ids()) {
    if (scratch.unit_class[static_cast<std::size_t>(s.unit_of(y))] !=
        slot_class) {
      continue;
    }
    if (s.start(y) < slot.time) {
      sigma.push_back(y);
      if (trial[y] > slot.time) {
        trial[y] = slot.time;
        AIS_OBS_COUNT(obs::ctr::kDeadlinesTightened);
      }
    }
  }

  // Ranks under the capped deadlines, for the paper's failure guard.
  bool structurally_feasible = true;
  std::vector<Time>& rank = scratch.rank;
  rank = session.compute_ranks(trial, opts, &structurally_feasible);
  if (!structurally_feasible) return false;

  // The schedule the tail node is read from: `s` until a run produces one
  // that leaves the slot where it was.
  std::optional<Schedule> current;
  // Each iteration strictly reduces the tail node's deadline below
  // slot.time, and the guard below bounds how often the slot can stay put;
  // the explicit cap is belt-and-braces for the heuristic regimes.
  const std::size_t iteration_cap = 4 * active.size() + 8;
  for (std::size_t iter = 0; iter < iteration_cap; ++iter) {
    const Schedule& at = current.has_value() ? *current : s;
    const NodeId tail = at.tail_node(slot.unit, slot.time);
    if (tail == kInvalidNode) return false;  // slot preceded by idle time
    if (trial[tail] > slot.time - 1) {
      trial[tail] = slot.time - 1;
      AIS_OBS_COUNT(obs::ctr::kDeadlinesTightened);
    }

    // Paper guard: some sigma node must still be allowed to complete at
    // slot.time, otherwise the tail position can never be filled.
    bool refillable = false;
    for (const NodeId y : sigma) {
      if (rank[y] >= slot.time && trial[y] >= slot.time) {
        refillable = true;
        break;
      }
    }
    if (!refillable) return false;

    RankResult result = session.run(trial, opts);
    if (!result.feasible) return false;
    rank.swap(result.rank);

    const auto& slots = result.schedule.idle_slots();
    IdleSlot new_slot;
    if (index >= slots.size()) {
      // The slot was eliminated outright (possible in heuristic regimes;
      // §4.2 calls this out as a desirable outcome).
      new_slot = IdleSlot{slot.unit, result.schedule.makespan()};
    } else {
      new_slot = slots[index];
    }
    if (new_slot.time > slot.time) {
      deadlines.swap(trial);  // finalize all deadline modifications
      restore.commit();  // the trial state is the new base
      AIS_OBS_COUNT(obs::ctr::kIdleSlotsMoved);
      s = std::move(result.schedule);
      slot = new_slot;
      return true;
    }
    if (new_slot.time < slot.time) {
      // Cannot happen in the restricted case (the sigma caps pin every node
      // before the slot), but heuristic machines (typed units, long
      // execution times) can shuffle slots across units; treat as failure.
      return false;
    }
    current = std::move(result.schedule);
  }
  return false;
}

}  // namespace

MoveIdleResult move_idle_slot(const RankScheduler& scheduler, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts) {
  RankSession session(scheduler, s.active());
  return move_idle_slot(session, s, deadlines, slot, opts);
}

MoveIdleResult move_idle_slot(RankSession& session, const Schedule& s,
                              DeadlineMap& deadlines, IdleSlot slot,
                              const RankOptions& opts) {
  MoveIdleScratch scratch(session.scheduler().machine());
  MoveIdleResult out{s, slot, false};
  out.moved = move_idle_in_place(session, out.schedule, deadlines, out.slot,
                                 opts, scratch);
  return out;
}

Schedule delay_idle_slots(const RankScheduler& scheduler, Schedule s,
                          DeadlineMap& deadlines, const RankOptions& opts) {
  // Every re-schedule keeps the active set of `s`, so one session serves
  // the whole sweep.
  RankSession session(scheduler, s.active());
  return delay_idle_slots(session, std::move(s), deadlines, opts);
}

Schedule delay_idle_slots(RankSession& session, Schedule s,
                          DeadlineMap& deadlines, const RankOptions& opts) {
  AIS_OBS_SPAN("move_idle");
  MoveIdleScratch scratch(session.scheduler().machine());
  for (std::size_t i = 0; i < s.idle_slots().size(); ++i) {
    IdleSlot slot = s.idle_slots()[i];
    // Keep trying to move the i-th idle slot (paper Fig. 6 inner loop).
    while (move_idle_in_place(session, s, deadlines, slot, opts, scratch) &&
           slot.time < s.makespan()) {
    }
  }
  return s;
}

}  // namespace ais
