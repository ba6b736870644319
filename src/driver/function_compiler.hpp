// Whole-program driver: profile-guided trace formation + anticipatory
// scheduling of every trace, preserving code layout.
//
// This is the end-to-end story the paper tells: form traces from the CFG
// (as trace scheduling does, §6), but instead of moving instructions across
// blocks, reorder *within* each block so the hardware window overlaps the
// trace at run time — safe on off-trace paths by construction, and
// serviceable because every instruction stays in its home block.
#pragma once

#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/trace_select.hpp"
#include "driver/anticipatory.hpp"
#include "verify/report.hpp"

namespace ais {

struct CompiledProgram {
  /// The program with every block's instructions reordered in place (block
  /// order and labels untouched).
  Program program;
  /// The traces that were formed and scheduled, heaviest first.
  std::vector<SelectedTrace> traces;
  /// Simulated completion of the hottest trace's emitted code before and
  /// after anticipatory scheduling, at the window used.
  Time hot_trace_cycles_before = 0;
  Time hot_trace_cycles_after = 0;
  int window = 0;
  /// Oracle findings when compiled with `verify` set (empty otherwise).
  verify::Report verification;
};

/// Compiles `cfg.program()` for `machine`: select traces by profile,
/// schedule each trace anticipatorily, reassemble.  `window` = 0 uses the
/// machine default.  With `verify` set, every scheduled trace is re-checked
/// by the independent oracle and findings land in
/// CompiledProgram::verification.
///
/// `jobs` compiles that many traces concurrently (<= 0 = one per CPU in
/// the affinity mask, see clamp_jobs).  Traces partition the CFG's blocks disjointly, so per-trace
/// results are independent; they are folded back in trace order, making the
/// output — program, diagnostics, verification report — identical at every
/// job count.
CompiledProgram compile_program(const Cfg& cfg, const MachineModel& machine,
                                int window = 0, bool verify = false,
                                int jobs = 1);

}  // namespace ais
