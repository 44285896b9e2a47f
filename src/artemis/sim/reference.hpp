#pragma once

#include "artemis/ir/analysis.hpp"
#include "artemis/sim/gridset.hpp"

namespace artemis::sim {

/// Execute one bound stencil over its full output domain, kernel-style:
/// every point whose reads are all in bounds is updated; other points are
/// left untouched. Arrays that the stencil both reads (at non-center
/// offsets) and writes are snapshotted first, so all reads observe
/// pre-kernel values, matching GPU execution where no intra-kernel
/// ordering exists between points.
void run_stencil_reference(const ir::Program& prog,
                           const ir::BoundStencil& bound, GridSet& gs);

/// Execute the whole program (iterate blocks unrolled, swaps applied) with
/// the reference interpreter: the fast, compiled, slab-parallel check that
/// `run`, the examples and the transform properties compare plans
/// against. The plan-free semantics oracle it is itself checked against
/// is verify::run_program_oracle.
void run_program_reference(const ir::Program& prog, GridSet& gs);

}  // namespace artemis::sim
