// Tests for Move_Idle_Slot / Delay_Idle_Slots (paper Figs. 4 and 6).
#include <gtest/gtest.h>

#include "core/move_idle.hpp"
#include "core/rank.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_graphs.hpp"

namespace ais {
namespace {

/// Builds the Figure 1 rank schedule with the paper's tie order (e first),
/// normalized deadlines (= makespan) ready for idle-slot motion.
struct Fig1Setup {
  DepGraph g = fig1_bb1();
  MachineModel machine = scalar01();
  RankScheduler scheduler{g, machine};
  NodeSet all = NodeSet::all(g.num_nodes());
  RankOptions opts;
  DeadlineMap d = uniform_deadlines(g, 100);
  Schedule schedule{&g, NodeSet(g.num_nodes()), 1};

  Fig1Setup() {
    opts.tie_break.assign(g.num_nodes(), 0);
    opts.tie_break[g.find("e")] = -1;
    RankResult r = scheduler.run(all, d, opts);
    EXPECT_EQ(r.makespan, 7);
    for (const NodeId id : all.ids()) d[id] = r.makespan;
    schedule = std::move(r.schedule);
  }
};

TEST(MoveIdleSlot, Fig1DelaysSlotFrom2To5) {
  Fig1Setup fx;
  ASSERT_EQ(fx.schedule.idle_slots(),
            (std::vector<IdleSlot>{IdleSlot{0, 2}}));
  const MoveIdleResult res =
      move_idle_slot(fx.scheduler, fx.schedule, fx.d, IdleSlot{0, 2}, fx.opts);
  EXPECT_TRUE(res.moved);
  EXPECT_GT(res.slot.time, 2);
  EXPECT_EQ(res.schedule.makespan(), 7);
  // Deadline reductions were committed; the paper derives d(x) = 1.
  EXPECT_LE(fx.d[fx.g.find("x")], 2);
}

TEST(MoveIdleSlot, FailureLeavesScheduleAndDeadlinesUntouched) {
  Fig1Setup fx;
  // First push the slot as late as possible.
  Schedule delayed =
      delay_idle_slots(fx.scheduler, fx.schedule, fx.d, fx.opts);
  const auto slots = delayed.idle_slots();
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].time, 5);
  const DeadlineMap before = fx.d;
  // The slot at t=5 cannot move further: a must be last (needs both w and b
  // plus latency) and the makespan is 7.
  const MoveIdleResult res =
      move_idle_slot(fx.scheduler, delayed, fx.d, slots[0], fx.opts);
  EXPECT_FALSE(res.moved);
  EXPECT_EQ(res.slot, slots[0]);
  EXPECT_EQ(fx.d, before);
  EXPECT_EQ(res.schedule.permutation(), delayed.permutation());
}

TEST(MoveIdleSlot, FailedAttemptLeavesSessionCacheUntouched) {
  Fig1Setup fx;
  const DeadlineMap base = fx.d;
  DeadlineMap d = fx.d;
  const Schedule delayed =
      delay_idle_slots(fx.scheduler, fx.schedule, d, fx.opts);
  ASSERT_EQ(delayed.idle_slots().size(), 1u);
  const IdleSlot last = delayed.idle_slots()[0];  // t=5: cannot move
  const DeadlineMap before = d;

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  RankSession session(fx.scheduler, fx.all);
  const MoveIdleResult failed =
      move_idle_slot(session, delayed, d, last, fx.opts);
  EXPECT_FALSE(failed.moved);
  EXPECT_EQ(failed.slot, last);
  EXPECT_EQ(d, before);
  EXPECT_EQ(failed.schedule.permutation(), delayed.permutation());
  for (const NodeId id : fx.all.ids()) {
    EXPECT_EQ(failed.schedule.start(id), delayed.start(id));
    EXPECT_EQ(failed.schedule.unit_of(id), delayed.unit_of(id));
  }

  // The rank cache is back at the attempt's uncapped deadlines: ranking
  // them again needs no incremental pass, and matches a fresh session.
  const std::uint64_t passes =
      obs::counter_value(obs::ctr::kRankIncrementalPasses);
  const std::vector<Time> ranks = session.compute_ranks(d, fx.opts);
  EXPECT_EQ(obs::counter_value(obs::ctr::kRankIncrementalPasses), passes);
  obs::set_enabled(was_enabled);
  RankSession fresh(fx.scheduler, fx.all);
  EXPECT_EQ(ranks, fresh.compute_ranks(d, fx.opts));

  // The next attempt on the same session equals one on a fresh session.
  DeadlineMap d_shared = base;
  DeadlineMap d_fresh = base;
  const MoveIdleResult shared = move_idle_slot(
      session, fx.schedule, d_shared, IdleSlot{0, 2}, fx.opts);
  const MoveIdleResult alone = move_idle_slot(
      fx.scheduler, fx.schedule, d_fresh, IdleSlot{0, 2}, fx.opts);
  EXPECT_TRUE(shared.moved);
  EXPECT_EQ(shared.moved, alone.moved);
  EXPECT_EQ(shared.slot, alone.slot);
  EXPECT_EQ(shared.schedule.permutation(), alone.schedule.permutation());
  EXPECT_EQ(d_shared, d_fresh);
}

TEST(DelayIdleSlots, Fig1FullDelayReachesT5) {
  Fig1Setup fx;
  const Schedule delayed =
      delay_idle_slots(fx.scheduler, fx.schedule, fx.d, fx.opts);
  EXPECT_EQ(delayed.makespan(), 7);
  const auto slots = delayed.idle_slots();
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].time, 5);
  EXPECT_EQ(validate_schedule(delayed, fx.machine), "");
}

TEST(DelayIdleSlots, NoIdleSlotsIsANoOp) {
  DepGraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, b, 0);
  const RankScheduler scheduler(g, scalar01());
  DeadlineMap d = uniform_deadlines(g, 100);
  RankResult r = scheduler.run(NodeSet::all(2), d, {});
  ASSERT_TRUE(r.schedule.idle_slots().empty());
  const auto perm = r.schedule.permutation();
  const Schedule s =
      delay_idle_slots(scheduler, std::move(r.schedule), d, {});
  EXPECT_EQ(s.permutation(), perm);
}

// Property sweep: delaying never changes the makespan, never moves any idle
// slot earlier, and a second application is a fixpoint.
class DelayIdleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelayIdleProperty, MakespanPreservedSlotsMonotoneFixpoint) {
  Prng prng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    RandomBlockParams params;
    params.num_nodes = static_cast<int>(prng.uniform(4, 14));
    params.edge_prob = prng.uniform01() * 0.5;
    const DepGraph g = random_block(prng, params);
    const RankScheduler scheduler(g, scalar01());
    const NodeSet all = NodeSet::all(g.num_nodes());
    DeadlineMap d = uniform_deadlines(g, huge_deadline(g, all));
    RankResult r = scheduler.run(all, d, {});
    ASSERT_TRUE(r.feasible);
    for (const NodeId id : all.ids()) d[id] = r.makespan;

    const auto before = r.schedule.idle_slots();
    const Schedule delayed =
        delay_idle_slots(scheduler, std::move(r.schedule), d, {});
    const auto after = delayed.idle_slots();

    EXPECT_EQ(delayed.makespan(), r.makespan);
    EXPECT_EQ(validate_schedule(delayed, scalar01()), "");
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_GE(after[i].time, before[i].time) << "slot " << i;
    }

    // Fixpoint: a second pass changes nothing.
    DeadlineMap d2 = d;
    const Schedule again = delay_idle_slots(scheduler, delayed, d2, {});
    const auto after2 = again.idle_slots();
    ASSERT_EQ(after2.size(), after.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after2[i].time, after[i].time) << "slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayIdleProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(DelayIdleSlots, HeuristicMachinesStayValid) {
  Prng prng(0xd1e);
  using MachineFactory = MachineModel (*)();
  for (const MachineFactory make : {MachineFactory{rs6000_like},
                                    MachineFactory{deep_pipeline},
                                    MachineFactory{vliw4}}) {
    const MachineModel machine = make();
    for (int trial = 0; trial < 5; ++trial) {
      const DepGraph g = random_machine_block(prng, machine, 16, 0.25);
      const RankScheduler scheduler(g, machine);
      const NodeSet all = NodeSet::all(g.num_nodes());
      DeadlineMap d = uniform_deadlines(g, huge_deadline(g, all));
      RankResult r = scheduler.run(all, d, {});
      ASSERT_TRUE(r.feasible);
      for (const NodeId id : all.ids()) d[id] = r.makespan;
      const Schedule delayed =
          delay_idle_slots(scheduler, std::move(r.schedule), d, {});
      EXPECT_LE(delayed.makespan(), r.makespan);
      EXPECT_EQ(validate_schedule(delayed, machine), "");
    }
  }
}

}  // namespace
}  // namespace ais
