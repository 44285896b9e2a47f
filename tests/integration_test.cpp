// End-to-end integration properties across the whole stack.

#include <gtest/gtest.h>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/transform/fusion.hpp"

namespace artemis {
namespace {

using codegen::KernelConfig;
using codegen::TilingScheme;

class Integration : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;
};

TEST_F(Integration, OccupancyPragmaFlowsThroughPlanning) {
  const auto prog = dsl::parse(R"(
    parameter L=128, M=128, N=128;
    iterator k, j, i;
    double a[L,M,N], b[L,M,N], o[L,M,N];
    copyin a, b;
    #pragma block (16,8,4) occupancy 1.0
    stencil s (O, A, B) {
      O[k][j][i] = A[k][j][i+2] + A[k][j][i-2] + A[k][j+2][i] + A[k][j-2][i]
                 + A[k+2][j][i] + A[k-2][j][i] + B[k][j][i];
    }
    s (o, a, b);
    copyout o;
  )");
  const KernelConfig cfg =
      codegen::config_from_pragma(prog, prog.stencils[0].pragma, 3);
  ASSERT_TRUE(cfg.target_occupancy.has_value());
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  // Rationing demoted the least-accessed input so that full occupancy is
  // achievable under the shared-memory budget.
  EXPECT_EQ(plan.placement.at("b").space, ir::MemSpace::Global);
  const auto ev = gpumodel::evaluate(plan, dev_);
  EXPECT_GE(ev.occupancy.fraction, 0.5);
}

/// Time-tiled execution must equal the reference for every tile size,
/// over zero-boundary inputs (the documented equivalence contract).
class TimeTileSweep : public Integration,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TimeTileSweep, FusedExecutionMatchesReference) {
  const int x = GetParam();
  const auto prog =
      stencils::benchmark_program("7pt-smoother", 14, /*t=*/x);
  sim::GridSet ref = sim::GridSet::from_program(prog, 5);
  sim::zero_boundary(ref.grid("u"), 1);
  sim::GridSet pre = ref.clone();
  sim::run_program_reference(prog, ref);

  const auto tt = transform::time_tile_iterate(prog, prog.steps[0], x);
  sim::GridSet fused = sim::GridSet::from_program(tt.augmented, 5);
  fused.grid("u") = pre.grid("u");
  KernelConfig cfg;
  cfg.block = {4, 4, 1};
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  const auto plan = codegen::build_plan(tt.augmented, tt.stages, cfg, dev_);
  sim::execute_plan(plan, fused);
  fused.swap("un", "u");
  EXPECT_LT(Grid3D::max_abs_diff(ref.grid("u"), fused.grid("u")), 1e-12)
      << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Tiles, TimeTileSweep, ::testing::Values(1, 2, 3, 4));

TEST_F(Integration, DenoiseMultiCallTimeTilingMatchesReference) {
  // The iterate body has two calls (diffus + update): the generalized
  // time-tiler must rename the per-step temporary g per fused step.
  const auto prog = stencils::benchmark_program("denoise", 12, 4);
  sim::GridSet ref = sim::GridSet::from_program(prog, 9);
  sim::zero_boundary(ref.grid("u"), 1);
  sim::GridSet pre = ref.clone();
  sim::run_program_reference(prog, ref);

  const auto tt = transform::time_tile_iterate(prog, prog.steps[0], 2);
  ASSERT_EQ(tt.stages.size(), 4u);  // 2 steps x 2 calls
  sim::GridSet fused = sim::GridSet::from_program(tt.augmented, 9);
  fused.grid("u") = pre.grid("u");
  fused.grid("f") = pre.grid("f");
  fused.set_scalar("eps", pre.scalar("eps"));
  fused.set_scalar("dt", pre.scalar("dt"));
  fused.set_scalar("gamma", pre.scalar("gamma"));
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  const auto plan = codegen::build_plan(tt.augmented, tt.stages, cfg, dev_);
  for (int inv = 0; inv < 2; ++inv) {
    sim::execute_plan(plan, fused);
    fused.swap("un", "u");
  }
  EXPECT_LT(Grid3D::max_abs_diff(ref.grid("u"), fused.grid("u")), 1e-12);
}

TEST_F(Integration, RandomDagsSurviveFullPipeline) {
  Rng rng(0xD09);
  for (int trial = 0; trial < 4; ++trial) {
    stencils::RandomStencilOptions opts;
    opts.dims = 3;
    opts.max_order = 2;
    opts.max_stages = 2;
    opts.extent = 48;
    const auto prog = stencils::random_program(rng, opts);
    const auto r = driver::optimize_program(prog, dev_, params_);
    EXPECT_GT(r.tflops, 0.0) << "trial " << trial;
    EXPECT_GE(r.kernel_launches, 1) << "trial " << trial;
  }
}

TEST_F(Integration, FusionPartitionNeverLosesToEndpoints) {
  // The Section VI-B partition DP must be at least as good as both
  // extreme forests: maximal fusion and one-kernel-per-call.
  const char* src = R"(
    parameter L=192, M=192, N=192;
    iterator k, j, i;
    double a[L,M,N], t1[L,M,N], t2[L,M,N], o[L,M,N];
    copyin a;
    stencil cheap (T, A) {
      T[k][j][i] = 0.5*(A[k][j][i-1] + A[k][j][i+1]);
    }
    stencil wide (T, A) {
      T[k][j][i] = A[k][j][i-4] + A[k][j][i+4] + A[k][j-4][i]
                 + A[k][j+4][i] + A[k-4][j][i] + A[k+4][j][i];
    }
    stencil point (O, A) { O[k][j][i] = A[k][j][i] * 2.0; }
    cheap (t1, a);
    wide (t2, t1);
    point (o, t2);
    copyout o;
  )";
  const auto prog = dsl::parse(src);

  driver::Strategy partition = driver::artemis_strategy();
  driver::Strategy maxfuse = driver::artemis_strategy();
  maxfuse.partition_dag = false;
  driver::Strategy percall = driver::artemis_strategy();
  percall.allow_dag_fusion = false;

  const auto rp = driver::optimize_program(prog, dev_, params_, partition);
  const auto rm = driver::optimize_program(prog, dev_, params_, maxfuse);
  const auto rc = driver::optimize_program(prog, dev_, params_, percall);
  EXPECT_LE(rp.time_s, rm.time_s * 1.001);
  EXPECT_LE(rp.time_s, rc.time_s * 1.001);
  EXPECT_GE(rp.kernels.size(), 1u);
  EXPECT_LE(rp.kernels.size(), 3u);
}

TEST_F(Integration, AllStrategiesDeterministic) {
  const auto prog = stencils::benchmark_program("helmholtz", 128, 4);
  for (const auto& strat : {driver::artemis_strategy(),
                            driver::ppcg_strategy()}) {
    const auto a = driver::optimize_program(prog, dev_, params_, strat);
    const auto b = driver::optimize_program(prog, dev_, params_, strat);
    EXPECT_EQ(a.time_s, b.time_s) << strat.name;
    EXPECT_EQ(a.fusion_schedule, b.fusion_schedule) << strat.name;
  }
}

}  // namespace
}  // namespace artemis
