// Differential tests for the cold-path pre-scheduling pipeline
// (LookaheadOptions::jobs / preschedule).
//
// The pipeline contract is byte identity: schedule_trace must produce the
// same planning order, per-block code and diagnostics at every jobs value,
// with the substrate donors adopted, seeded, or rejected by the
// backward-edge gate.  Counters are not part of it: pool workers count the
// rank runs they do on their own threads.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lookahead.hpp"
#include "core/rank.hpp"
#include "core/schedule_cache.hpp"
#include "graph/depgraph.hpp"
#include "graph/nodeset.hpp"
#include "machine/machine_model.hpp"
#include "obs/obs.hpp"
#include "support/prng.hpp"
#include "workloads/random_graphs.hpp"

namespace ais {
namespace {

void expect_same_lookahead(const LookaheadResult& got,
                           const LookaheadResult& want,
                           const std::string& what) {
  EXPECT_EQ(got.order, want.order) << what;
  EXPECT_EQ(got.per_block, want.per_block) << what;
  EXPECT_EQ(got.diag.merged_makespans, want.diag.merged_makespans) << what;
  EXPECT_EQ(got.diag.prefixes_emitted, want.diag.prefixes_emitted) << what;
  EXPECT_EQ(got.diag.max_inversion_span, want.diag.max_inversion_span) << what;
}

/// One serial reference and one parallel run over the same scheduler, both
/// bypassing the cache; asserts byte identity.
void expect_jobs_identity(const RankScheduler& scheduler,
                          const LookaheadOptions& base, int jobs,
                          const std::string& what) {
  ScheduleCache::ScopedBypass bypass;

  LookaheadOptions serial = base;
  serial.jobs = 1;
  const LookaheadResult want = schedule_trace(scheduler, serial);

  LookaheadOptions parallel = base;
  parallel.jobs = jobs;
  const LookaheadResult got = schedule_trace(scheduler, parallel);

  expect_same_lookahead(got, want, what + " jobs=" + std::to_string(jobs));
}

struct Regime {
  const char* name;
  MachineModel machine;
  int max_latency;
  int window;
};

std::vector<Regime> regimes() {
  return {
      {"scalar01-unit", scalar01(), 1, 4},
      {"rs6000-lat2", rs6000_like(), 2, 4},
      {"deep-lat3", deep_pipeline(), 3, 6},
      {"vliw4-lat2", vliw4(), 2, 4},
  };
}

// ---------------------------------------------------------------------------
// Byte identity across jobs values.
// ---------------------------------------------------------------------------

TEST(Preschedule, JobsByteIdenticalOnRandomTraces) {
  for (const Regime& regime : regimes()) {
    for (int round = 0; round < 6; ++round) {
      Prng prng(0x90b5 + static_cast<std::uint64_t>(round) * 7919);
      RandomTraceParams params;
      params.num_blocks = 5;
      params.block.num_nodes = 12;
      params.block.edge_prob = 0.3;
      params.block.max_latency = regime.max_latency;
      params.cross_edges = 3;
      const DepGraph g = random_trace(prng, params);
      const RankScheduler scheduler(g, regime.machine);

      LookaheadOptions opts;
      opts.window = regime.window;
      const std::string what =
          std::string(regime.name) + " round " + std::to_string(round);
      for (const int jobs : {2, 3, 8}) {
        expect_jobs_identity(scheduler, opts, jobs, what);
      }
    }
  }
}

TEST(Preschedule, JobsByteIdenticalOnMachineAndBoundaryTraces) {
  for (const Regime& regime : regimes()) {
    for (int round = 0; round < 4; ++round) {
      Prng prng(0xb0a7 + static_cast<std::uint64_t>(round) * 131);
      const DepGraph g = (round % 2 == 0)
          ? random_machine_trace(prng, regime.machine, 4, 10, 0.35, 2)
          : boundary_trace(prng, BoundaryTraceParams{
                .num_blocks = 5,
                .chain_len = 4,
                .independents = 4,
                .boundary_latency = regime.max_latency + 1,
            });
      const RankScheduler scheduler(g, regime.machine);

      LookaheadOptions opts;
      opts.window = regime.window;
      const std::string what = std::string(regime.name) + " gen-round " +
                               std::to_string(round);
      expect_jobs_identity(scheduler, opts, 8, what);
    }
  }
}

/// jobs <= 0 means "all hardware threads"; the degenerate block counts
/// (one block, empty-ish blocks) exercise the pool-size clamp.
TEST(Preschedule, JobsByteIdenticalOnDegenerateTraces) {
  const MachineModel machine = rs6000_like();
  {
    Prng prng(0x51);
    RandomTraceParams params;
    params.num_blocks = 1;
    params.block.num_nodes = 16;
    params.block.edge_prob = 0.3;
    params.block.max_latency = 2;
    params.cross_edges = 0;
    const DepGraph g = random_trace(prng, params);
    const RankScheduler scheduler(g, machine);
    LookaheadOptions opts;
    opts.window = 4;
    expect_jobs_identity(scheduler, opts, 8, "single-block");
    expect_jobs_identity(scheduler, opts, 0, "single-block hw-threads");
  }
  {
    Prng prng(0x52);
    RandomTraceParams params;
    params.num_blocks = 12;
    params.block.num_nodes = 2;
    params.block.edge_prob = 0.5;
    params.block.max_latency = 3;
    params.cross_edges = 1;
    const DepGraph g = random_trace(prng, params);
    const RankScheduler scheduler(g, machine);
    LookaheadOptions opts;
    opts.window = 2;
    expect_jobs_identity(scheduler, opts, 16, "tiny-blocks");
  }
}

/// preschedule = false must reduce jobs > 1 to the plain serial path.
TEST(Preschedule, DisabledPipelineMatchesSerial) {
  Prng prng(0x0ff);
  RandomTraceParams params;
  params.num_blocks = 4;
  params.block.num_nodes = 12;
  params.block.edge_prob = 0.3;
  params.block.max_latency = 2;
  params.cross_edges = 2;
  const DepGraph g = random_trace(prng, params);
  const RankScheduler scheduler(g, rs6000_like());

  LookaheadOptions opts;
  opts.window = 4;
  opts.preschedule = false;
  expect_jobs_identity(scheduler, opts, 8, "preschedule-off");
}

/// The ablation that disables merge deadline caps also disables the
/// pipeline (the substrate contract assumes capped merges); jobs > 1 must
/// still match jobs = 1 there.
TEST(Preschedule, AblationWithoutDeadlineCapsMatchesSerial) {
  Prng prng(0xab1a);
  RandomTraceParams params;
  params.num_blocks = 4;
  params.block.num_nodes = 10;
  params.block.edge_prob = 0.3;
  params.block.max_latency = 2;
  params.cross_edges = 2;
  const DepGraph g = random_trace(prng, params);
  const RankScheduler scheduler(g, rs6000_like());

  LookaheadOptions opts;
  opts.window = 4;
  opts.merge_deadline_caps = false;
  expect_jobs_identity(scheduler, opts, 8, "no-deadline-caps");
}

/// A distance-0 dependence from a later block back into an earlier one
/// invalidates the donated substrate (the standalone closure rows differ
/// from the union's); the seed gate must reject it and fall back to the
/// unseeded solve, still byte-identical to serial.
TEST(Preschedule, BackwardCrossEdgeGateFallsBack) {
  DepGraph g;
  const NodeId a0 = g.add_node("a0", 1, 0, 0);
  const NodeId a1 = g.add_node("a1", 1, 0, 0);
  const NodeId a2 = g.add_node("a2", 1, 0, 0);
  const NodeId a3 = g.add_node("a3", 1, 0, 0);
  const NodeId b0 = g.add_node("b0", 1, 0, 1);
  const NodeId b1 = g.add_node("b1", 1, 0, 1);
  const NodeId b2 = g.add_node("b2", 1, 0, 1);
  const NodeId b3 = g.add_node("b3", 1, 0, 1);
  g.add_edge(a0, a1, 2, 0);
  g.add_edge(a1, a2, 1, 0);
  g.add_edge(b0, b1, 2, 0);
  g.add_edge(b1, b2, 1, 0);
  g.add_edge(a0, b3, 1, 0);
  // The gate trigger: new-block b0 must precede old-block a3 in-iteration.
  g.add_edge(b0, a3, 1, 0);

  for (const MachineModel& machine : {scalar01(), rs6000_like()}) {
    const RankScheduler scheduler(g, machine);
    for (const int window : {2, 4}) {
      LookaheadOptions opts;
      opts.window = window;
      expect_jobs_identity(scheduler, opts, 8,
                           "backward-edge W" + std::to_string(window));
    }
  }
}

// ---------------------------------------------------------------------------
// Cache interaction: jobs is not part of the key.
// ---------------------------------------------------------------------------

/// A trace compiled at jobs = 8 must populate the same cache entry a
/// jobs = 1 compile consumes (and vice versa): outputs are identical, so
/// jobs is deliberately absent from the key.
TEST(Preschedule, CacheEntriesSharedAcrossJobs) {
  ScheduleCache& cache = ScheduleCache::global();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(true);
  cache.clear();

  Prng prng(0x5a5a);
  RandomTraceParams params;
  params.num_blocks = 4;
  params.block.num_nodes = 12;
  params.block.edge_prob = 0.3;
  params.block.max_latency = 2;
  params.cross_edges = 2;
  const DepGraph g = random_trace(prng, params);
  const RankScheduler scheduler(g, deep_pipeline());

  LookaheadOptions opts;
  opts.window = 6;

  LookaheadResult want;
  {
    ScheduleCache::ScopedBypass bypass;
    want = schedule_trace(scheduler, opts);
  }

  // Cold populate at jobs = 8.
  opts.jobs = 8;
  expect_same_lookahead(schedule_trace(scheduler, opts), want, "cold jobs=8");

  // Warm consume at jobs = 1: a trace-level hit serving identical bytes.
  opts.jobs = 1;
  const std::uint64_t hits_before = obs::counter_value(obs::ctr::kCacheHits);
  expect_same_lookahead(schedule_trace(scheduler, opts), want, "warm jobs=1");
  if (obs::enabled()) {
    EXPECT_GT(obs::counter_value(obs::ctr::kCacheHits), hits_before);
  }

  cache.set_enabled(was_enabled);
}

}  // namespace
}  // namespace ais
