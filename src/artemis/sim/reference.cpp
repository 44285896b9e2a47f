#include "artemis/sim/reference.hpp"

#include "artemis/common/check.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/sim/bytecode.hpp"

namespace artemis::sim {

void run_stencil_reference(const ir::Program& prog,
                           const ir::BoundStencil& bound, GridSet& gs) {
  const ir::StencilInfo info = ir::analyze(prog, bound);
  const int dims = static_cast<int>(prog.iterators.size());
  ARTEMIS_CHECK_MSG(!info.outputs.empty(),
                    "stencil '" << bound.name << "' writes nothing");
  const Extents dom = gs.grid(info.outputs.front()).extents();
  for (const auto& out : info.outputs) {
    ARTEMIS_CHECK_MSG(gs.grid(out).extents() == dom,
                      "outputs of '" << bound.name
                                     << "' have mismatched extents");
  }

  // The reference never recomputes points, so aliasing-free read-write
  // arrays skip the snapshot.
  const GridBinding bind(info, gs, dims, /*recompute=*/false, {});
  const CompiledStencil cs =
      compile_stmts(bound.stmts, dims, bind.arrays, bind.scalars);

  // Parallelize over the outermost axis: points are independent
  // (snapshotted reads) and every write targets a distinct coordinate.
  parallel_for(dom.z, [&](std::int64_t z) {
    BcRegion slab;
    slab.lo = {z, 0, 0};
    slab.hi = {z + 1, dom.y, dom.x};
    BcCounters c;  // the reference reports no counters
    run_compiled_region(cs, bind.views, bind.scalar_vals.data(), slab,
                        BcRegion{}, /*drop_outside_commit=*/false, c);
  });
}

void run_program_reference(const ir::Program& prog, GridSet& gs) {
  for (const auto& step : ir::flatten_steps(prog)) {
    switch (step.kind) {
      case ir::ExecStep::Kind::Stencil:
        run_stencil_reference(prog, step.stencil, gs);
        break;
      case ir::ExecStep::Kind::Swap:
        gs.swap(step.swap.a, step.swap.b);
        break;
    }
  }
}

}  // namespace artemis::sim
