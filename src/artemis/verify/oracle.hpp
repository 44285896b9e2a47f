#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "artemis/codegen/plan.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/ir/program.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/gridset.hpp"

namespace artemis::verify {

/// The grids and summed counters of one full program execution through
/// the plan builder + functional executor.
struct RunResult {
  sim::GridSet gs;
  sim::ExecCounters totals;
  /// Internal arrays of a fused plan that are not program outputs: they
  /// live in block scratch only, so their global grids are never written.
  std::set<std::string> scratch_only;
  /// Counting-mode traces, one per executed plan (empty unless counting).
  std::vector<sim::PlanTrace> traces;
};

/// Execute every plan of `prog` — per-call, or all calls fused into one
/// plan — under `opts` (engine, jobs), collecting summed
/// counters. With `counting`, every plan runs in counting mode and its
/// trace is kept. This is the differential driver of engines_diff, the
/// verify properties and the simulator tests.
RunResult run_program_plans(const ir::Program& prog,
                            const codegen::KernelConfig& cfg, bool fuse,
                            std::uint64_t seed, const sim::ExecOptions& opts,
                            bool counting = false);

/// The semantics oracle: a serial walk of the whole unfused program
/// (iterate blocks unrolled, swaps applied) through
/// sim::apply_stmts_at_point, one point at a time over each stencil's
/// output domain, with arrays snapshotted per sim::needs_snapshot (no
/// recompute). It shares neither plan geometry nor bytecode with the
/// engines it checks. Counts computed and vetoed points and global
/// element reads (including reads made before a veto) and writes; writes
/// to arrays in `uncounted` land in the grids but not in the write count.
sim::ExecCounters run_program_oracle(
    const ir::Program& prog, sim::GridSet& gs,
    const std::set<std::string>& uncounted = {});

/// Bitwise grid comparison: stricter than max_abs_diff == 0
/// (distinguishes -0.0 and NaN payloads). Grids of `a` named in `skip`
/// are not compared. Returns "" when identical, otherwise a one-line
/// description of the first mismatching grid.
std::string grids_diff(const sim::GridSet& a, const sim::GridSet& b,
                       const std::set<std::string>& skip = {});

/// "" when equal, otherwise a field-by-field mismatch description.
std::string counters_diff(const sim::ExecCounters& a,
                          const sim::ExecCounters& b);

/// The differential check of every execution path against
/// run_program_oracle:
///  - the compiled reference (sim::run_program_reference) matches the
///    oracle's grids bit for bit;
///  - the bytecode and native engines at jobs 1, 2 and 4 match
///    them too — every grid for per-call plans; for a fused plan
///    (`fuse`) every grid but its scratch-only internals;
///  - per-call plans report the oracle's computed, skipped and global
///    read/write counts and no scratch traffic; a fused plan, which
///    recomputes halos in scratch, reports its global writes;
///  - every run reports the counters of the first;
///  - on small domains, counting-mode traces (per-stage line streams,
///    interior/rim counters, write-backs) of bytecode at jobs 1 and
///    native at jobs 4 are equal.
/// Returns "" on success, otherwise the first mismatch.
std::string engines_diff(const ir::Program& prog,
                         const codegen::KernelConfig& cfg, bool fuse,
                         std::uint64_t seed);

/// A random but always-launchable kernel configuration for `dims`
/// iterators: spatial or streaming tiling, small block shapes, optional
/// unroll (the same distribution the bytecode simulator sweep uses).
codegen::KernelConfig random_config(Rng& rng, int dims);

}  // namespace artemis::verify
