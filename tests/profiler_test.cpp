#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/metrics/compare.hpp"
#include "artemis/metrics/metrics.hpp"
#include "artemis/profile/profiler.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "test_programs.hpp"

namespace artemis::profile {
namespace {

using codegen::BuildOptions;
using codegen::KernelConfig;
using codegen::TilingScheme;

class ProfilerTest : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;
};

TEST_F(ProfilerTest, BandwidthBoundJacobi) {
  // A single 7-point sweep is the canonical DRAM bandwidth-bound kernel
  // (Table II: OI_dram 0.97 << 6.42).
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  const auto& call = prog.steps[0].body[0].call;
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {32, 16, 1};
  const auto plan = codegen::build_plan_for_call(prog, call, cfg, dev_);
  const ProfileReport rep = profile_plan(plan, dev_, params_);
  EXPECT_TRUE(rep.bandwidth_bound_at(Level::Dram));
  EXPECT_FALSE(rep.compute_bound);
  EXPECT_LT(rep.oi_dram, 2.0);
  EXPECT_GT(rep.oi_dram, 0.3);
}

TEST_F(ProfilerTest, FusionRaisesOiDram) {
  // The Table II trend: OI_dram grows with fusion degree.
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  double prev = 0.0;
  for (int x = 1; x <= 4; ++x) {
    const auto tt = transform::time_tile_iterate(prog, prog.steps[0], x);
    KernelConfig cfg;
    cfg.tiling = TilingScheme::StreamSerial;
    cfg.stream_axis = 2;
    cfg.block = {16, 4, 1};  // small enough for the x=4 fused internals
    const auto plan =
        codegen::build_plan(tt.augmented, tt.stages, cfg, dev_);
    const ProfileReport rep = profile_plan(plan, dev_, params_);
    EXPECT_GT(rep.oi_dram, prev) << "x=" << x;
    prev = rep.oi_dram;
  }
  // Fusion must shift the bound towards shared memory: OI_shm stays flat
  // and low while OI_dram grows past it.
  EXPECT_GT(prev, 1.8);
}

TEST_F(ProfilerTest, ComputeBoundKernel) {
  // Huge arithmetic per point, one array: compute-bound at every level.
  const ir::Program prog = dsl::parse(R"(
    parameter L=128, M=128, N=128;
    iterator k, j, i;
    double a[L,M,N], o[L,M,N], c;
    copyin a, c;
    stencil s (O, A, c) {
      double t0 = A[k][j][i]*c + 0.5;
      double t1 = t0*t0 + t0*c + sqrt(t0*t0 + 1.0);
      double t2 = t1*t1 + t1*t0 + exp(t1*0.001);
      double t3 = t2*t2 + t2*t1 + t2*t0 + t2*c;
      double t4 = t3*t3 + t3*t2 + t3*t1 + t3*t0;
      double t5 = t4*t4 + t4*t3 + t4*t2 + t4*t1 + t4*t0;
      double t6 = t5*t5 + t5*t4 + t5*t3 + t5*t2 + t5*t1 + t5*t0;
      double t7 = t6*t6 + t6*t5 + t6*t4 + t6*t3 + t6*t2 + t6*t1;
      double t8 = t7*t7 + t7*t6 + t7*t5 + t7*t4 + t7*t3 + t7*t2 + t7*t1;
      double t9 = t8*t8 + t8*t7 + t8*t6 + t8*t5 + t8*t4 + t8*t3 + t8*t2;
      double ta = t9*t9 + t9*t8 + t9*t7 + t9*t6 + t9*t5 + t9*t4 + t9*t3;
      double tb = ta*ta + ta*t9 + ta*t8 + ta*t7 + ta*t6 + ta*t5 + ta*t4;
      O[k][j][i] = tb + ta + t9 + t8 + t7 + t6 + t5 + t4 + t3 + t2 + t1
        + t0;
    }
    s (o, a, c);
    copyout o;
  )");
  codegen::BuildOptions opts;
  opts.use_shared_memory = false;
  KernelConfig cfg;
  cfg.block = {32, 4, 2};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev_, opts);
  const ProfileReport rep = profile_plan(plan, dev_, params_);
  EXPECT_TRUE(rep.compute_bound);
  EXPECT_FALSE(rep.bandwidth_bound_anywhere());
  EXPECT_GT(rep.oi_dram, dev_.balance_dram());
}

TEST_F(ProfilerTest, CodeDifferencingResolvesNearRidge) {
  // addsgd4 at paper extent, streamed serially through shared memory,
  // has a DRAM OI between the two margins: code differencing, not the
  // plain roofline thresholds, settles its DRAM verdict.
  const auto prog = stencils::benchmark_program("addsgd4");
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {32, 4, 1};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  const ProfileReport rep = profile_plan(plan, dev_, params_);
  ASSERT_TRUE(rep.eval.valid);
  EXPECT_NE(std::find(rep.differenced.begin(), rep.differenced.end(),
                      Level::Dram),
            rep.differenced.end());
  // The differencing rule: with DRAM time removed the roofline is
  // re-taken at full overlap; more than an 8% gain is bandwidth-bound.
  const auto& ev = rep.eval;
  const double without_dram = std::max({ev.t_tex, ev.t_shm, ev.t_compute});
  EXPECT_EQ(rep.dram, (ev.time_s - without_dram) / ev.time_s >
                              kDifferencingThreshold
                          ? LevelVerdict::BandwidthBound
                          : LevelVerdict::ComputeBound);
}

TEST_F(ProfilerTest, RegisterPressureDetected) {
  const auto prog = stencils::benchmark_program("rhs4sgcurv", 320);
  KernelConfig cfg;
  cfg.block = {16, 16, 1};
  cfg.max_registers = 255;
  codegen::BuildOptions opts;
  opts.use_shared_memory = false;  // isolate registers from shmem capacity
  const auto plan = codegen::build_plan_for_call(prog, prog.steps[0].call,
                                                 cfg, dev_, opts);
  const ProfileReport rep = profile_plan(plan, dev_, params_);
  EXPECT_TRUE(rep.register_pressure);
  EXPECT_GT(rep.eval.regs.spilled(255), 0);
}

TEST_F(ProfilerTest, HintsComputeBound) {
  ProfileReport rep;
  rep.compute_bound = true;
  const auto h = derive_hints(rep, false, true);
  EXPECT_TRUE(h.disable_unroll);
  EXPECT_TRUE(h.disable_shmem_opts);
  EXPECT_TRUE(h.apply_flop_reduction);
  EXPECT_FALSE(h.text.empty());
}

TEST_F(ProfilerTest, HintsIterativeFusion) {
  ProfileReport rep;
  rep.dram = LevelVerdict::BandwidthBound;
  const auto h = derive_hints(rep, /*iterative=*/true, true);
  EXPECT_TRUE(h.try_higher_fusion);
}

TEST_F(ProfilerTest, HintsSpatialShmem) {
  ProfileReport rep;
  rep.tex = LevelVerdict::BandwidthBound;
  const auto h = derive_hints(rep, /*iterative=*/false, /*uses_shmem=*/false);
  EXPECT_TRUE(h.enable_shmem);
}

TEST_F(ProfilerTest, HintsPreferGlobalWhenDramBoundWithShmem) {
  ProfileReport rep;
  rep.dram = LevelVerdict::BandwidthBound;
  const auto h = derive_hints(rep, /*iterative=*/false, /*uses_shmem=*/true);
  EXPECT_TRUE(h.prefer_global_version);
}

TEST_F(ProfilerTest, HintsShmBoundEnablesRegisterOpts) {
  ProfileReport rep;
  rep.shm = LevelVerdict::BandwidthBound;
  const auto h = derive_hints(rep, false, true);
  EXPECT_TRUE(h.enable_register_opts);
}

TEST_F(ProfilerTest, HintsRegisterPressureTriggersFission) {
  ProfileReport rep;
  rep.register_pressure = true;
  const auto h = derive_hints(rep, false, true);
  EXPECT_TRUE(h.generate_fission_candidates);
  EXPECT_TRUE(h.disable_unroll);
}

TEST_F(ProfilerTest, HintsLatencyBoundWithRegisterPressure) {
  // A latency-bound kernel with spills: the pressure hints fire (fission
  // candidates, no unrolling) but none of the bandwidth-driven hints do --
  // latency-boundedness on its own carries no rewrite recipe.
  ProfileReport rep;
  rep.latency_bound = true;
  rep.register_pressure = true;
  rep.dram = LevelVerdict::Inconclusive;
  rep.tex = LevelVerdict::Inconclusive;
  const auto h = derive_hints(rep, /*iterative=*/true, /*uses_shmem=*/true);
  EXPECT_TRUE(h.generate_fission_candidates);
  EXPECT_TRUE(h.disable_unroll);
  EXPECT_FALSE(h.try_higher_fusion);
  EXPECT_FALSE(h.enable_shmem);
  EXPECT_FALSE(h.prefer_global_version);
  EXPECT_FALSE(h.enable_register_opts);
  EXPECT_FALSE(h.apply_flop_reduction);
  EXPECT_EQ(h.text.size(), 1u);
}

TEST_F(ProfilerTest, HintsNoTrafficAtAllLevelsYieldsNoHints) {
  // A default-constructed report (NoTraffic everywhere, no pressure, not
  // compute-bound) must produce no hints at all: derive_hints may never
  // invent advice when the profiler saw nothing actionable.
  ProfileReport rep;
  ASSERT_EQ(rep.dram, LevelVerdict::NoTraffic);
  ASSERT_EQ(rep.tex, LevelVerdict::NoTraffic);
  ASSERT_EQ(rep.shm, LevelVerdict::NoTraffic);
  ASSERT_FALSE(rep.bandwidth_bound_anywhere());
  for (const bool iterative : {false, true}) {
    for (const bool uses_shmem : {false, true}) {
      const auto h = derive_hints(rep, iterative, uses_shmem);
      EXPECT_FALSE(h.disable_unroll);
      EXPECT_FALSE(h.disable_shmem_opts);
      EXPECT_FALSE(h.apply_flop_reduction);
      EXPECT_FALSE(h.try_higher_fusion);
      EXPECT_FALSE(h.enable_shmem);
      EXPECT_FALSE(h.prefer_global_version);
      EXPECT_FALSE(h.enable_register_opts);
      EXPECT_FALSE(h.generate_fission_candidates);
      EXPECT_TRUE(h.text.empty());
    }
  }
}

TEST_F(ProfilerTest, SummaryMentionsVerdicts) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  const auto& call = prog.steps[0].body[0].call;
  KernelConfig cfg;
  const auto plan = codegen::build_plan_for_call(prog, call, cfg, dev_);
  const auto rep = profile_plan(plan, dev_, params_);
  const std::string s = rep.summary();
  EXPECT_NE(s.find("OI(dram)"), std::string::npos);
  EXPECT_NE(s.find("OI(shm)"), std::string::npos);
}

TEST_F(ProfilerTest, MeasuredMetricsAgreeWithBandwidthVerdict) {
  // The observatory's measured side must reproduce the profiler's
  // qualitative verdict: a 7-point sweep is DRAM bandwidth-bound, so the
  // measured OI(dram) sits well below the device ridge point — and the
  // modeled OI, whatever its absolute divergence, lands on the same side.
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.block = {8, 8, 4};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev_);
  const ProfileReport rep = profile_plan(plan, dev_, params_);
  EXPECT_TRUE(rep.bandwidth_bound_at(Level::Dram));

  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  const metrics::PlanMetrics m = metrics::measure_plan(plan, gs, dev_);
  const double ridge = dev_.peak_dp_flops / dev_.dram_bytes_per_s;
  EXPECT_GT(m.totals.oi_dram(), 0.0);
  EXPECT_LT(m.totals.oi_dram(), ridge);
  EXPECT_LT(rep.oi_dram, ridge);

  // Divergence between the modeled and measured counters is reported as
  // a bounded signed relative error.
  const auto predicted = gpumodel::evaluate(plan, dev_, params_).counters;
  const metrics::ModelVsMeasured d =
      metrics::compare_counters(predicted, m);
  EXPECT_LE(std::fabs(d.dram_bytes.rel_error()), 1.0);
  EXPECT_LE(std::fabs(d.flops.rel_error()), 1.0);
  // The measured-roofline ranking signal exists and is positive.
  EXPECT_GT(metrics::measured_roofline_s(m, dev_), 0.0);
}

}  // namespace
}  // namespace artemis::profile
