#pragma once

#include <string>

#include "artemis/codegen/plan.hpp"
#include "artemis/sim/bytecode.hpp"
#include "artemis/sim/gridset.hpp"

namespace artemis::sim {

/// Element-level counts gathered while executing a plan; used by tests to
/// cross-check the analytic performance model's traffic formulas.
struct ExecCounters {
  std::int64_t computed_points = 0;   ///< stencil applications incl. recompute
  std::int64_t skipped_points = 0;    ///< vetoed by the boundary guard
  std::int64_t global_read_elems = 0; ///< element reads from global arrays
  std::int64_t global_write_elems = 0;
  std::int64_t scratch_read_elems = 0;  ///< reads from fused internal buffers
  std::int64_t scratch_write_elems = 0;
  std::int64_t blocks = 0;
};

/// Which interpreter executes the plan's statement lists. Both produce
/// bit-identical grids, counters and counting-mode traces;
/// verify::run_program_oracle is the plan-free semantics oracle they are
/// checked against.
enum class SimEngine {
  Bytecode,  ///< compiled slot-resolved bytecode (default)
  Native,    ///< SIMD interior tier over bytecode (sim/native/), rim + any
             ///< refused stage fall back to the bytecode engine
};

/// Stable names for CLI flags, telemetry and reports: "bytecode",
/// "native".
const char* engine_name(SimEngine engine);

/// Parse an engine name. Throws artemis::Error on anything else.
SimEngine engine_by_name(const std::string& name);

/// Counting-mode output for one plan execution: per-stage interior/rim
/// counters and coalesced line streams, plus the flat address map that
/// ties line ids back to arrays. Per-block traces are reduced in block-id
/// order exactly like BcCounters, so the result is deterministic at any
/// job count. Filled by execute_plan when ExecOptions::trace points here;
/// gpumodel-free so sim stays a leaf module (metrics/ does cache replay).
struct PlanTrace {
  /// One array slot of the flat global address space, slot-ordered.
  /// elem_base is line-aligned and ranges are disjoint, so any line id in
  /// a stage stream maps back to exactly one array.
  struct ArrayInfo {
    std::string name;
    std::uint64_t elem_base = 0;  ///< byte base (line-aligned)
    std::int64_t elems = 0;       ///< storage elements (8 bytes each)
  };

  int line_bytes = static_cast<int>(kTraceLineBytes);
  std::vector<ArrayInfo> arrays;
  std::vector<StageTrace> stages;  ///< one per plan stage, merged
  /// Global commits of materialized internal arrays (scratch -> grid
  /// write-back after the stage sweeps); not attributable to one stage.
  StageTrace writeback;
};

/// Execution options.
struct ExecOptions {
  /// Worker count for the block sweep; 0 resolves to default_jobs().
  int jobs = 0;
  SimEngine engine = SimEngine::Bytecode;
  /// Counting mode: when non-null, per-stage measured counters and line
  /// streams are collected here (identical output from both engines).
  /// Composes with the parallel sweep and leaves grids, returned counters
  /// and journal bytes bit-identical to a plain run.
  PlanTrace* trace = nullptr;
};

/// Execute a kernel plan over real grids, faithfully reproducing the
/// generated code's block decomposition:
///
///  - the output domain is tiled exactly as the plan tiles it (spatial
///    tiles, serial streaming columns, or concurrent streaming chunks);
///  - fused stages compute over tiles expanded by their overlapped-tiling
///    expansion (plan.stage_expand), with internal arrays living in
///    zero-initialized block-local scratch (the shared-memory stand-in);
///  - external outputs commit only within the block's owned tile;
///  - a point is skipped when any read falls outside the domain (the CUDA
///    boundary guard), and arrays read-and-written with neighbor offsets
///    are snapshotted so all blocks observe pre-kernel values (see
///    needs_snapshot for the exact rule).
///
/// Each stage's statement list is compiled once into slot-resolved
/// bytecode (see bytecode.hpp) and blocks are swept in parallel over the
/// work-stealing TaskPool, with per-block counters reduced in block order
/// so the returned totals are deterministic at any job count.
///
/// Numerical results match run_stencil_reference exactly for identical
/// statement lists; geometry bugs (wrong halo, missing expansion) surface
/// as mismatches. Throws if an internal-array read escapes its scratch
/// region (a planner bug by construction).
ExecCounters execute_plan(const codegen::KernelPlan& plan, GridSet& gs,
                          const ExecOptions& opts = {});

}  // namespace artemis::sim
