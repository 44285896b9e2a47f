#include <gtest/gtest.h>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "artemis/verify/oracle.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::BuildOptions;
using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::TilingScheme;

/// Run every call step of `prog` through build_plan + execute_plan with
/// `config`, and compare all copyout arrays against the reference
/// interpreter. Returns max abs diff over outputs.
double run_and_compare(const ir::Program& prog, const KernelConfig& config,
                       const BuildOptions& opts = {}, bool fuse_all = false,
                       std::uint64_t seed = 1234) {
  const auto dev = gpumodel::p100();

  GridSet ref = GridSet::from_program(prog, seed);
  GridSet tiled = ref.clone();

  run_program_reference(prog, ref);

  if (fuse_all) {
    std::vector<ir::BoundStencil> stages;
    int idx = 0;
    for (const auto& step : prog.steps) {
      ARTEMIS_CHECK(step.kind == ir::Step::Kind::Call);
      stages.push_back(
          ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
    }
    const KernelPlan plan =
        codegen::build_plan(prog, std::move(stages), config, dev, opts);
    execute_plan(plan, tiled);
  } else {
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind == ir::ExecStep::Kind::Swap) {
        tiled.swap(step.swap.a, step.swap.b);
        continue;
      }
      std::vector<ir::BoundStencil> stages = {step.stencil};
      const KernelPlan plan =
          codegen::build_plan(prog, std::move(stages), config, dev, opts);
      execute_plan(plan, tiled);
    }
  }

  double worst = 0.0;
  for (const auto& out : prog.copyout) {
    worst = std::max(
        worst, Grid3D::max_abs_diff(ref.grid(out), tiled.grid(out)));
  }
  return worst;
}

TEST(Executor, JacobiSpatialMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {8, 4, 2};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, JacobiStreamSerialMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {8, 4, 1};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, JacobiStreamConcurrentMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamConcurrent;
  cfg.stream_axis = 2;
  cfg.stream_chunk = 5;
  cfg.block = {8, 4, 1};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, UnevenTileSizesMatchReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  // 16^3 domain with tiles of 5x3x7: forces partial boundary tiles.
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {5, 3, 7};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, UnrollChangesTilesNotValues) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {4, 4, 2};
  cfg.unroll = {2, 2, 1};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, IterativePingPongMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiIterativeDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {4, 4, 4};
  EXPECT_EQ(run_and_compare(prog, cfg), 0.0);
}

TEST(Executor, FusedDagMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kDagDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {4, 4, 2};
  EXPECT_EQ(run_and_compare(prog, cfg, {}, /*fuse_all=*/true), 0.0);
}

TEST(Executor, FusedDagStreamingMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kDagDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {4, 4, 1};
  EXPECT_EQ(run_and_compare(prog, cfg, {}, /*fuse_all=*/true), 0.0);
}

TEST(Executor, FusedDagGlobalOnlyMatchesReference) {
  const ir::Program prog = dsl::parse(artemis::testing::kDagDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {4, 4, 2};
  BuildOptions opts;
  opts.use_shared_memory = false;
  EXPECT_EQ(run_and_compare(prog, cfg, opts, /*fuse_all=*/true), 0.0);
}

TEST(Executor, ReferenceSizesItsPoolByTheDefaultJobs) {
  // The reference's slab sweep follows the process default (--jobs): at
  // one job it runs serially, at two it starts one pool per stencil step.
  ir::Program prog = dsl::parse(testing::kJacobiIterativeDsl);
  for (auto& p : prog.params) p.value = 16;
  std::int64_t steps = 0;
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Stencil) ++steps;
  }
  const auto pools_at = [&](int jobs) {
    set_default_jobs(jobs);
    telemetry::Collector::global().enable();
    telemetry::Collector::global().clear();
    GridSet gs = GridSet::from_program(prog, 5);
    run_program_reference(prog, gs);
    const auto counters = telemetry::Collector::global().counters();
    telemetry::Collector::global().disable();
    set_default_jobs(0);
    const auto it = counters.find("parallel.pools");
    return it == counters.end() ? std::int64_t{0} : it->second;
  };
  EXPECT_EQ(pools_at(1), 0);
  EXPECT_EQ(pools_at(2), steps);
}

TEST(Executor, InPlaceNeighbourUpdateMatchesOracle) {
  // A 3D stencil that reads the array it writes at neighbour offsets: every
  // point must read pre-kernel values, so the executor binds a snapshot of
  // `u` (needs_snapshot). The plan-free oracle keeps its own snapshots, so
  // it checks the executor's binding independently. Blocks split every
  // axis, so blocks read cells that other blocks write.
  const ir::Program prog = dsl::parse(R"(
    parameter L=10, M=12, N=20;
    iterator k, j, i;
    double u[L,M,N], c;
    copyin u, c;
    stencil relax (U, c) {
      U[k][j][i] = c * (U[k][j][i-1] + U[k][j][i+1] + U[k][j-1][i]
                 + U[k][j+1][i] + U[k-1][j][i] + U[k+1][j][i])
                 - U[k][j][i];
    }
    relax (u, c);
    copyout u;
  )");
  const auto dev = gpumodel::p100();
  const GridSet start = GridSet::from_program(prog, 99);
  GridSet want = start.clone();
  verify::run_program_oracle(prog, want);

  KernelConfig spatial;
  spatial.tiling = TilingScheme::Spatial3D;
  spatial.block = {4, 4, 2};
  KernelConfig streamed;
  streamed.tiling = TilingScheme::StreamSerial;
  streamed.stream_axis = 2;
  streamed.block = {8, 4, 1};
  for (const KernelConfig& cfg : {spatial, streamed}) {
    const KernelPlan plan =
        codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
    for (const SimEngine engine : {SimEngine::Bytecode, SimEngine::Native}) {
      for (const int jobs : {1, 4}) {
        telemetry::Collector::global().enable();
        telemetry::Collector::global().clear();
        GridSet got = start.clone();
        ExecOptions opts;
        opts.jobs = jobs;
        opts.engine = engine;
        execute_plan(plan, got, opts);
        const auto counters = telemetry::Collector::global().counters();
        telemetry::Collector::global().disable();
        const std::string what = str_cat(engine_name(engine), " jobs ", jobs,
                                         " ", cfg.to_string());
        EXPECT_EQ(verify::grids_diff(want, got), "") << what;
        if (engine == SimEngine::Native) {
          // The stage runs on the native tier, not the bytecode fallback.
          const auto it = counters.find("sim.native_stages");
          EXPECT_TRUE(it != counters.end() && it->second == 1) << what;
        }
      }
    }
  }
}

TEST(Executor, CountsComputeAndSkips) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  GridSet gs = GridSet::from_program(prog, 7);
  KernelConfig cfg;
  cfg.block = {8, 8, 8};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  // 16^3 domain, order-1: interior 14^3 computed, the shell skipped.
  EXPECT_EQ(c.computed_points, 14 * 14 * 14);
  EXPECT_EQ(c.skipped_points, 16 * 16 * 16 - 14 * 14 * 14);
  EXPECT_EQ(c.blocks, 8);
  EXPECT_EQ(c.global_write_elems, 14 * 14 * 14);
}

// ---- counting mode ---------------------------------------------------------

void expect_counters_equal(const ExecCounters& a, const ExecCounters& b) {
  EXPECT_EQ(a.computed_points, b.computed_points);
  EXPECT_EQ(a.skipped_points, b.skipped_points);
  EXPECT_EQ(a.global_read_elems, b.global_read_elems);
  EXPECT_EQ(a.global_write_elems, b.global_write_elems);
  EXPECT_EQ(a.scratch_read_elems, b.scratch_read_elems);
  EXPECT_EQ(a.scratch_write_elems, b.scratch_write_elems);
  EXPECT_EQ(a.blocks, b.blocks);
}

TEST(Executor, CountingModeLeavesRunBitIdentical) {
  // Counting mode must be a pure observer: grids and counters stay
  // bit-identical to the plain run, serial or parallel.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 4, 2};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  for (const int jobs : {1, 4}) {
    GridSet plain = GridSet::from_program(prog, 11);
    GridSet counted = plain.clone();
    ExecOptions po;
    po.jobs = jobs;
    const ExecCounters cp = execute_plan(plan, plain, po);

    PlanTrace trace;
    ExecOptions co;
    co.jobs = jobs;
    co.trace = &trace;
    const ExecCounters cc = execute_plan(plan, counted, co);

    expect_counters_equal(cp, cc);
    for (const auto& [name, grid] : plain.grids()) {
      EXPECT_EQ(grid->raw(), counted.grid(name).raw())
          << "jobs=" << jobs << " array " << name;
    }

    // The trace's own accounting reconciles with the plain counters.
    ASSERT_EQ(trace.stages.size(), 1u);
    const StageTrace& st = trace.stages[0];
    EXPECT_EQ(st.interior.computed + st.rim.computed, cp.computed_points);
    EXPECT_EQ(st.interior.skipped + st.rim.skipped, cp.skipped_points);
    EXPECT_EQ(st.interior.greads + st.rim.greads, cp.global_read_elems);
    EXPECT_EQ(st.interior.gwrites + st.rim.gwrites, cp.global_write_elems);
    // Order-1 Jacobi: the rim class is exactly the domain shell, fully
    // guard-vetoed; the interior path never sees the guard at all.
    EXPECT_GT(st.rim.computed + st.rim.skipped, 0);
    EXPECT_EQ(st.rim.computed, 0);
    EXPECT_EQ(st.interior.skipped, 0);
    EXPECT_GT(st.interior.computed, 0);
    EXPECT_FALSE(st.lines.empty());
    EXPECT_GT(st.flops_per_point, 0);
    ASSERT_FALSE(trace.arrays.empty());
  }
}

TEST(Executor, CountingTraceIsJobsInvariant) {
  // Per-block traces are merged in block-id order, so the concatenated
  // line stream (and everything derived from it) is identical at any
  // worker count.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {8, 4, 1};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  PlanTrace t1, t4;
  {
    GridSet gs = GridSet::from_program(prog, 3);
    ExecOptions o;
    o.jobs = 1;
    o.trace = &t1;
    execute_plan(plan, gs, o);
  }
  {
    GridSet gs = GridSet::from_program(prog, 3);
    ExecOptions o;
    o.jobs = 4;
    o.trace = &t4;
    execute_plan(plan, gs, o);
  }
  ASSERT_EQ(t1.stages.size(), t4.stages.size());
  for (std::size_t s = 0; s < t1.stages.size(); ++s) {
    EXPECT_EQ(t1.stages[s].lines, t4.stages[s].lines) << "stage " << s;
    EXPECT_EQ(t1.stages[s].interior.computed, t4.stages[s].interior.computed);
    EXPECT_EQ(t1.stages[s].rim.computed, t4.stages[s].rim.computed);
  }
  EXPECT_EQ(t1.writeback.lines, t4.writeback.lines);
}

TEST(Executor, CountingModeDegenerateAxis) {
  // A 1D program: extent-1 y/z axes must not break the interior/rim
  // split (the whole domain is rim along the degenerate axes).
  Rng rng(0xDE6E);
  stencils::RandomStencilOptions ropts;
  ropts.dims = 1;
  ropts.max_order = 1;
  ropts.max_stages = 1;
  const ir::Program prog = stencils::random_program(rng, ropts);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 1, 1};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  GridSet plain = GridSet::from_program(prog, 5);
  GridSet counted = plain.clone();
  const ExecCounters cp = execute_plan(plan, plain);
  PlanTrace trace;
  ExecOptions co;
  co.trace = &trace;
  const ExecCounters cc = execute_plan(plan, counted, co);
  expect_counters_equal(cp, cc);
  for (const auto& [name, grid] : plain.grids()) {
    EXPECT_EQ(grid->raw(), counted.grid(name).raw()) << "array " << name;
  }
}

TEST(Executor, NativeCountingMatchesBytecodeCounting) {
  // The native engine computes interior counters analytically (O(1) per
  // segment) and replays the exact bytecode interleaving for trace
  // records; a counted native run must reproduce the counted bytecode
  // run bit-for-bit — grids, counters, per-stage class split, and the
  // derived line streams — at any worker count. Inputs: a Jacobi plan,
  // the fused two-stage DAG with its intermediate in scratch and with it
  // materialized (write-backs), a 2D plan, and a stage the native
  // lowering refuses (run on the bytecode engine inside a native run).
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 4, 2};
  const auto single = [&](const ir::Program& prog, const KernelConfig& c) {
    return codegen::build_plan_for_call(prog, prog.steps[0].call, c, dev);
  };
  const auto fused = [&](const ir::Program& prog) {
    std::vector<ir::BoundStencil> stages;
    int idx = 0;
    for (const auto& step : prog.steps) {
      stages.push_back(
          ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
    }
    return codegen::build_plan(prog, std::move(stages), cfg, dev);
  };

  const auto check = [&](const char* label, const ir::Program& prog,
                         const KernelPlan& plan) {
    for (const int jobs : {1, 4}) {
      GridSet bc = GridSet::from_program(prog, 21);
      GridSet nat = bc.clone();
      PlanTrace tb, tn;
      ExecOptions ob;
      ob.jobs = jobs;
      ob.trace = &tb;
      const ExecCounters cb = execute_plan(plan, bc, ob);
      ExecOptions on;
      on.jobs = jobs;
      on.engine = SimEngine::Native;
      on.trace = &tn;
      const ExecCounters cn = execute_plan(plan, nat, on);

      SCOPED_TRACE(str_cat(label, " jobs=", jobs));
      expect_counters_equal(cb, cn);
      for (const auto& [name, grid] : bc.grids()) {
        EXPECT_EQ(grid->raw(), nat.grid(name).raw()) << "array " << name;
      }
      ASSERT_EQ(tb.stages.size(), tn.stages.size());
      for (std::size_t s = 0; s < tb.stages.size(); ++s) {
        const StageTrace& a = tb.stages[s];
        const StageTrace& b = tn.stages[s];
        EXPECT_EQ(a.lines, b.lines) << "stage " << s;
        EXPECT_EQ(a.flops_per_point, b.flops_per_point);
        EXPECT_EQ(a.interior.computed, b.interior.computed);
        EXPECT_EQ(a.interior.skipped, b.interior.skipped);
        EXPECT_EQ(a.interior.greads, b.interior.greads);
        EXPECT_EQ(a.interior.gwrites, b.interior.gwrites);
        EXPECT_EQ(a.interior.sreads, b.interior.sreads);
        EXPECT_EQ(a.interior.swrites, b.interior.swrites);
        EXPECT_EQ(a.rim.computed, b.rim.computed);
        EXPECT_EQ(a.rim.skipped, b.rim.skipped);
        EXPECT_EQ(a.rim.greads, b.rim.greads);
        EXPECT_EQ(a.rim.gwrites, b.rim.gwrites);
        EXPECT_EQ(a.rim.sreads, b.rim.sreads);
        EXPECT_EQ(a.rim.swrites, b.rim.swrites);
      }
      EXPECT_EQ(tb.writeback.lines, tn.writeback.lines);
    }
  };

  const ir::Program jacobi = dsl::parse(artemis::testing::kJacobiDsl);
  check("jacobi", jacobi, single(jacobi, cfg));
  const ir::Program dag = dsl::parse(artemis::testing::kDagDsl);
  check("fused dag", dag, fused(dag));
  const ir::Program materialized =
      dsl::parse(artemis::testing::dag_materialized_dsl());
  const KernelPlan materialized_plan = fused(materialized);
  ASSERT_EQ(materialized_plan.materialized_internals,
            (std::vector<std::string>{"tmp"}));
  check("materialized dag", materialized, materialized_plan);
  const ir::Program planar = dsl::parse(artemis::testing::kLaplace2dDsl);
  KernelConfig cfg2d;
  cfg2d.block = {8, 4, 1};
  check("2d", planar, single(planar, cfg2d));
  const ir::Program transpose = dsl::parse(artemis::testing::kTransposeDsl);
  check("refused transpose", transpose, single(transpose, cfg));
}

// ---- property tests: random programs x random configs ----------------------

struct PropertyCase {
  int dims;
  int max_order;
  int max_stages;
};

class ExecutorProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ExecutorProperty, TiledMatchesReference) {
  const PropertyCase pc = GetParam();
  Rng rng(0xC0FFEE + static_cast<std::uint64_t>(pc.dims * 100 +
                                                pc.max_order * 10 +
                                                pc.max_stages));
  for (int trial = 0; trial < 8; ++trial) {
    stencils::RandomStencilOptions opts;
    opts.dims = pc.dims;
    opts.max_order = pc.max_order;
    opts.max_stages = pc.max_stages;
    const ir::Program prog = stencils::random_program(rng, opts);

    KernelConfig cfg;
    const std::int64_t roll = rng.uniform_int(0, 2);
    if (pc.dims >= 2 && roll == 1) {
      cfg.tiling = TilingScheme::StreamSerial;
    } else if (pc.dims >= 2 && roll == 2) {
      cfg.tiling = TilingScheme::StreamConcurrent;
      cfg.stream_chunk = static_cast<int>(rng.uniform_int(3, 9));
    } else {
      cfg.tiling = TilingScheme::Spatial3D;
    }
    cfg.stream_axis = pc.dims - 1;
    cfg.block = {static_cast<int>(rng.uniform_int(2, 7)),
                 pc.dims >= 2 ? static_cast<int>(rng.uniform_int(2, 7)) : 1,
                 pc.dims >= 3 ? static_cast<int>(rng.uniform_int(1, 5)) : 1};
    if (cfg.tiling != TilingScheme::Spatial3D) {
      cfg.block[static_cast<std::size_t>(pc.dims - 1)] = 1;
    }
    if (rng.coin(0.3)) cfg.unroll[0] = 2;

    const bool fuse = pc.max_stages > 1;
    const double diff = run_and_compare(
        prog, cfg, {}, fuse, 0x5EED0 + static_cast<std::uint64_t>(trial));
    EXPECT_EQ(diff, 0.0) << "dims=" << pc.dims << " order=" << pc.max_order
                         << " stages=" << pc.max_stages
                         << " trial=" << trial << " cfg "
                         << cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorProperty,
    ::testing::Values(PropertyCase{1, 1, 1}, PropertyCase{1, 3, 1},
                      PropertyCase{2, 1, 1}, PropertyCase{2, 2, 2},
                      PropertyCase{3, 1, 1}, PropertyCase{3, 2, 1},
                      PropertyCase{3, 1, 3}, PropertyCase{3, 2, 2}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "d" + std::to_string(info.param.dims) + "r" +
             std::to_string(info.param.max_order) + "s" +
             std::to_string(info.param.max_stages);
    });

}  // namespace
}  // namespace artemis::sim
