#include <gtest/gtest.h>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/bytecode.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/verify/oracle.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::KernelConfig;
using codegen::TilingScheme;

// ---- seeded random differential sweep --------------------------------------

TEST(BytecodeSim, RandomStencilsMatchOracle) {
  Rng rng(0xB17EC0DE);
  int trial = 0;
  for (const int dims : {1, 2, 3}) {
    for (int rep = 0; rep < 8; ++rep, ++trial) {
      stencils::RandomStencilOptions opts;
      opts.dims = dims;
      opts.max_order = 1 + static_cast<int>(rng.uniform_int(0, 2));
      opts.max_stages = dims == 3 ? 1 + static_cast<int>(rng.uniform_int(0, 2))
                                  : 1;
      opts.allow_calls = rng.coin(0.5);
      const ir::Program prog = stencils::random_program(rng, opts);
      const KernelConfig cfg = verify::random_config(rng, dims);
      const bool fuse = opts.max_stages > 1;
      const std::uint64_t seed = 0xFACE + static_cast<std::uint64_t>(trial);
      EXPECT_EQ(verify::engines_diff(prog, cfg, fuse, seed), "")
          << "trial " << trial << " dims=" << dims << " cfg "
          << cfg.to_string();
    }
  }
  EXPECT_GE(trial, 20);
}

// ---- named kernels, incl. fused multi-stage + scratch ----------------------

TEST(BytecodeSim, JacobiAndDagMatchAcrossTilings) {
  const ir::Program jacobi = dsl::parse(artemis::testing::kJacobiDsl);
  const ir::Program dag = dsl::parse(artemis::testing::kDagDsl);
  const ir::Program dag_materialized =
      dsl::parse(artemis::testing::dag_materialized_dsl());
  for (const auto tiling : {TilingScheme::Spatial3D, TilingScheme::StreamSerial,
                            TilingScheme::StreamConcurrent}) {
    KernelConfig cfg;
    cfg.tiling = tiling;
    cfg.stream_axis = 2;
    cfg.stream_chunk = 5;
    cfg.block = {8, 4, tiling == TilingScheme::Spatial3D ? 2 : 1};
    EXPECT_EQ(verify::engines_diff(jacobi, cfg, false, 77), "") << "jacobi";
    EXPECT_EQ(verify::engines_diff(dag, cfg, true, 78), "") << "dag-fused";
    EXPECT_EQ(verify::engines_diff(dag_materialized, cfg, true, 79), "")
        << "dag-fused-materialized";
  }
}

TEST(BytecodeSim, IterativePingPongMatches) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiIterativeDsl);
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  EXPECT_EQ(verify::engines_diff(prog, cfg, false, 99), "");
}

// ---- boundary-rim edge cases -----------------------------------------------

/// A second statement re-reads its own output at the center (pending-hit:
/// not counted as a global read) and at a neighbor (pending-miss: served
/// from the snapshot), plus a rewrite of the same element (last write
/// wins at commit).
TEST(BytecodeSim, PendingHitsAndSnapshotMissesCoexist) {
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil mix (B, A) {
  B[k][j][i] = A[k][j][i] * 0.25;
  B[k][j][i] = B[k][j][i] + B[k][j][i+1] + A[k][j][i-1];
}
mix (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 2, 2};
  EXPECT_EQ(verify::engines_diff(prog, cfg, false, 11), "");

  const verify::RunResult r =
      verify::run_program_plans(prog, cfg, false, 11, {.jobs = 1});
  // x in [1, 7): both neighbor reads in bounds.
  EXPECT_EQ(r.totals.computed_points, 8 * 8 * 6);
  EXPECT_EQ(r.totals.skipped_points, 8 * 8 * 2);
}

/// A zero-offset read through a permuted index vector reads another
/// point's cell: B[j][k][i] at (k, j, i) is the cell (j, k, i) writes.
/// Without a snapshot every engine, and the slab-parallel reference, reads
/// cells other blocks may already have written.
TEST(BytecodeSim, PermutedSelfReadNeedsSnapshot) {
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil transpose (B, A) {
  B[k][j][i] = A[k][j][i];
  B[k][j][i] = B[j][k][i] + 1.0;
}
transpose (out, in);
copyout out;
)");
  const ir::StencilInfo info =
      ir::analyze(prog, ir::bind_call(prog, prog.steps[0].call));
  EXPECT_TRUE(needs_snapshot(info.arrays.at("out"), 3, /*recompute=*/false));
  EXPECT_FALSE(needs_snapshot(info.arrays.at("in"), 3, /*recompute=*/false));
}

/// Reads at +/-3 on a 6^3 domain: the interior is empty (the whole domain
/// is boundary rim) and no point has all reads in bounds, so every point
/// is vetoed and the grids are untouched.
TEST(BytecodeSim, OutOfBoundsVetoSkipsEveryPoint) {
  const ir::Program prog = dsl::parse(R"(
parameter L=6, M=6, N=6;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil wide (B, A) {
  B[k][j][i] = A[k+3][j][i] + A[k-3][j][i];
}
wide (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {3, 3, 3};
  EXPECT_EQ(verify::engines_diff(prog, cfg, false, 12), "");

  GridSet gs = GridSet::from_program(prog, 12);
  const GridSet before = gs.clone();
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  EXPECT_EQ(c.computed_points, 0);
  EXPECT_EQ(c.skipped_points, 6 * 6 * 6);
  EXPECT_EQ(c.global_write_elems, 0);
  EXPECT_EQ(verify::grids_diff(before, gs), "");
}

/// Purely negative offsets: the interior is shifted, not shrunk
/// symmetrically; the high faces are all interior.
TEST(BytecodeSim, NegativeAsymmetricHalo) {
  const ir::Program prog = dsl::parse(R"(
parameter L=9, M=9, N=9;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil shift (B, A) {
  B[k][j][i] = A[k-2][j][i] + A[k][j-2][i] + A[k][j][i-2];
}
shift (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 3, 2};
  EXPECT_EQ(verify::engines_diff(prog, cfg, false, 13), "");

  GridSet gs = GridSet::from_program(prog, 13);
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  EXPECT_EQ(c.computed_points, 7 * 7 * 7);
  EXPECT_EQ(c.skipped_points, 9 * 9 * 9 - 7 * 7 * 7);
}

/// `+=` reads the pending value written by an earlier statement of the
/// same point (read-through), and the committed result is the sum.
TEST(BytecodeSim, AccumulateReadsThroughPendingWrites) {
  const ir::Program prog = dsl::parse(R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil acc (B, A) {
  B[k][j][i] = A[k][j][i] * 0.5;
  B[k][j][i] += A[k][j][i+1];
  B[k][j][i] += B[k][j][i];
}
acc (out, in);
copyout out;
)");
  KernelConfig cfg;
  cfg.block = {4, 4, 2};
  EXPECT_EQ(verify::engines_diff(prog, cfg, false, 14), "");

  // Spot-check the committed value: ((a*0.5 + a_x1) * 2) at an interior
  // point, computed through both pending read-throughs.
  GridSet gs = GridSet::from_program(prog, 14);
  const double a0 = gs.grid("in").at(3, 3, 3);
  const double a1 = gs.grid("in").at(3, 3, 4);
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  execute_plan(plan, gs);
  const double stage1 = a0 * 0.5 + a1;
  EXPECT_EQ(gs.grid("out").at(3, 3, 3), stage1 + stage1);
}

// ---- interior/rim split ----------------------------------------------------

TEST(BytecodeSim, InteriorRegionMatchesHaloGeometry) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
  const ir::StencilInfo info = ir::analyze(prog, bound);

  GridSet gs = GridSet::from_program(prog, 1);
  SlotMap arrays;
  for (const auto& [name, ai] : info.arrays) arrays.add(name);
  SlotMap scalars;
  for (const auto& name : info.scalars_read) scalars.add(name);
  const CompiledStencil cs = compile_stmts(bound.stmts, 3, arrays, scalars);

  std::vector<ArrayView> views(static_cast<std::size_t>(arrays.size()));
  for (int s = 0; s < arrays.size(); ++s) {
    ArrayView& v = views[static_cast<std::size_t>(s)];
    Grid3D& g = gs.grid(arrays.name(s));
    v.name = &arrays.name(s);
    v.read = g.data();
    v.write = g.data();
    v.ez = v.wz = g.extents().z;
    v.ey = v.wy = g.extents().y;
    v.ex = v.wx = g.extents().x;
  }

  BcRegion full;
  full.lo = {0, 0, 0};
  full.hi = {16, 16, 16};
  const BcRegion in = interior_region(cs, views, full);
  EXPECT_EQ(in.lo, (std::array<std::int64_t, 3>{1, 1, 1}));
  EXPECT_EQ(in.hi, (std::array<std::int64_t, 3>{15, 15, 15}));

  // A sub-box strictly inside the safe zone is all interior.
  BcRegion inner;
  inner.lo = {4, 4, 4};
  inner.hi = {10, 10, 10};
  const BcRegion in2 = interior_region(cs, views, inner);
  EXPECT_EQ(in2.lo, inner.lo);
  EXPECT_EQ(in2.hi, inner.hi);
}

// ---- compiled reference interpreter ----------------------------------------

/// run_program_reference (compiled, slab-parallel) against the plan-free
/// tree-walk oracle.
TEST(BytecodeSim, ReferenceMatchesOracle) {
  Rng rng(0x07ACE5);
  for (int trial = 0; trial < 6; ++trial) {
    stencils::RandomStencilOptions opts;
    opts.dims = 1 + static_cast<int>(rng.uniform_int(0, 2));
    opts.max_order = 2;
    opts.allow_calls = trial % 2 == 0;
    const ir::Program prog = stencils::random_program(rng, opts);
    GridSet got = GridSet::from_program(prog, 5000 + trial);
    GridSet want = got.clone();
    run_program_reference(prog, got);
    verify::run_program_oracle(prog, want);
    EXPECT_EQ(verify::grids_diff(want, got), "") << "trial " << trial;
  }
}

// ---- compile-time diagnostics ----------------------------------------------

TEST(BytecodeSim, CompileRejectsUnknownNames) {
  SlotMap arrays;
  arrays.add("A");
  SlotMap scalars;

  ir::Stmt bad_call;
  bad_call.lhs_name = "A";
  bad_call.lhs_indices = {{0, 0}};
  bad_call.rhs = ir::call("frobnicate", {ir::number(1.0)});
  EXPECT_THROW(compile_stmts({bad_call}, 1, arrays, scalars), Error);

  ir::Stmt bad_scalar;
  bad_scalar.lhs_name = "A";
  bad_scalar.lhs_indices = {{0, 0}};
  bad_scalar.rhs = ir::scalar_ref("nope");
  EXPECT_THROW(compile_stmts({bad_scalar}, 1, arrays, scalars), Error);

  ir::Stmt bad_array;
  bad_array.lhs_name = "B";
  bad_array.lhs_indices = {{0, 0}};
  bad_array.rhs = ir::number(0.0);
  EXPECT_THROW(compile_stmts({bad_array}, 1, arrays, scalars), Error);
}

}  // namespace
}  // namespace artemis::sim
