#pragma once

#include "artemis/codegen/plan.hpp"
#include "artemis/gpumodel/device.hpp"

namespace artemis::gpumodel {

/// Decomposed register-pressure estimate for one kernel plan; mirrors how
/// a real compiler's allocation responds to the plan's structure. Every
/// term is in registers per thread.
struct RegisterEstimate {
  int base = 0;         ///< indices, pointers, loop state
  int locals = 0;       ///< live scalar temporaries
  int operands = 0;     ///< operand registers for the widest statement
  int scheduling = 0;   ///< ILP-window pressure (grows with FLOPs)
  int stream_planes = 0;  ///< register planes of streamed shared arrays
  int accumulators = 0;   ///< retimed partial-sum registers
  int prefetch = 0;       ///< streaming prefetch registers
  int fold_savings = 0;   ///< registers saved by folded buffers
  double unroll_scale = 1.0;

  int total = 0;        ///< final clamped estimate
  int spilled(int max_registers) const {
    return total > max_registers ? total - max_registers : 0;
  }
};

/// Estimate per-thread register demand of the generated kernel.
///
/// The model: a base cost for addressing state; one register per live
/// scalar temporary; operand registers proportional to the widest
/// statement's distinct array reads; a scheduling term proportional to the
/// per-point FLOP count (the compiler keeps a deep ILP window live for
/// large expressions -- the effect that makes SW4's rhs4sgcurv spill even
/// at 255 registers, Section VIII-D); plus streaming register planes,
/// retimed accumulators and prefetch registers. Unrolling scales the
/// per-point terms (blocked distribution reuses overlapping operands,
/// cyclic does not -- Section III-A3).
///
/// The per-point terms come from plan.point_registers, derived once per
/// stage list; only the plan's config-dependent terms are computed here.
RegisterEstimate estimate_registers(const codegen::KernelPlan& plan);

/// The per-point terms of the model over a stage list's statements: one
/// register per distinct local, half a register per array read of the
/// widest statement, and one per 8 FLOPs of the whole list, each capped.
/// The plan builder stores the result in KernelPlan::point_registers.
codegen::PointRegisters point_registers(
    const std::vector<ir::BoundStencil>& stages);

/// Lightweight per-point register demand for a raw statement list (no
/// unroll / streaming / placement context). Used by the fission heuristic
/// to size kernel groups before a full plan exists: base + locals +
/// operand + scheduling terms of the full model.
int estimate_registers_for_stmts(const std::vector<ir::Stmt>& stmts);

}  // namespace artemis::gpumodel
