#include <gtest/gtest.h>

#include <cstring>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/bytecode.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/interp.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::BuildOptions;
using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::TilingScheme;

struct TraceEntry {
  std::string array;
  std::int64_t z, y, x;
  bool write;
  bool operator==(const TraceEntry&) const = default;
};

struct RunResult {
  GridSet gs;
  ExecCounters totals;
  std::vector<TraceEntry> trace;
};

void add_counters(ExecCounters& a, const ExecCounters& b) {
  a.computed_points += b.computed_points;
  a.skipped_points += b.skipped_points;
  a.global_read_elems += b.global_read_elems;
  a.global_write_elems += b.global_write_elems;
  a.scratch_read_elems += b.scratch_read_elems;
  a.scratch_write_elems += b.scratch_write_elems;
  a.blocks += b.blocks;
}

/// Execute every plan of `prog` (per-call, or all calls fused into one
/// plan) with the given engine/jobs, collecting summed counters and,
/// optionally, the global-access trace.
RunResult run_program(const ir::Program& prog, const KernelConfig& cfg,
                      bool fuse, std::uint64_t seed, SimEngine engine,
                      int jobs, bool record_trace) {
  const auto dev = gpumodel::p100();
  RunResult r{GridSet::from_program(prog, seed), {}, {}};
  ExecOptions opts;
  opts.engine = engine;
  opts.jobs = jobs;
  if (record_trace) {
    opts.global_hook = [&r](const std::string& a, std::int64_t z,
                            std::int64_t y, std::int64_t x, bool w) {
      r.trace.push_back({a, z, y, x, w});
    };
  }

  const auto run_plan = [&](const KernelPlan& plan) {
    add_counters(r.totals, execute_plan(plan, r.gs, opts));
  };
  if (fuse) {
    std::vector<ir::BoundStencil> stages;
    int idx = 0;
    for (const auto& step : prog.steps) {
      ARTEMIS_CHECK(step.kind == ir::Step::Kind::Call);
      stages.push_back(
          ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
    }
    run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
  } else {
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind == ir::ExecStep::Kind::Swap) {
        r.gs.swap(step.swap.a, step.swap.b);
        continue;
      }
      std::vector<ir::BoundStencil> stages = {step.stencil};
      run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
    }
  }
  return r;
}

/// Bitwise grid equality: stricter than max_abs_diff == 0 (distinguishes
/// -0.0 and would catch NaN payload differences).
::testing::AssertionResult grids_bit_identical(const GridSet& a,
                                               const GridSet& b) {
  for (const auto& [name, ga] : a.grids()) {
    const Grid3D& gb = b.grid(name);
    if (!(ga->extents() == gb.extents())) {
      return ::testing::AssertionFailure()
             << "grid '" << name << "' extents differ";
    }
    if (std::memcmp(ga->raw().data(), gb.raw().data(),
                    ga->raw().size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "grid '" << name << "' bytes differ";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult counters_equal(const ExecCounters& a,
                                          const ExecCounters& b) {
  if (a.computed_points != b.computed_points ||
      a.skipped_points != b.skipped_points ||
      a.global_read_elems != b.global_read_elems ||
      a.global_write_elems != b.global_write_elems ||
      a.scratch_read_elems != b.scratch_read_elems ||
      a.scratch_write_elems != b.scratch_write_elems ||
      a.blocks != b.blocks) {
    return ::testing::AssertionFailure()
           << "counters differ: computed " << a.computed_points << "/"
           << b.computed_points << " skipped " << a.skipped_points << "/"
           << b.skipped_points << " greads " << a.global_read_elems << "/"
           << b.global_read_elems << " gwrites " << a.global_write_elems
           << "/" << b.global_write_elems << " sreads "
           << a.scratch_read_elems << "/" << b.scratch_read_elems
           << " swrites " << a.scratch_write_elems << "/"
           << b.scratch_write_elems << " blocks " << a.blocks << "/"
           << b.blocks;
  }
  return ::testing::AssertionSuccess();
}

/// The core differential check: the tree-walking oracle (serial) against
/// the compiled engine and the native SIMD engine (strict mode) at jobs
/// 1, 2 and 4 — grids bit-identical, counters identical (the per-block
/// reduction makes them job-count independent), and hook traces
/// identical.
void expect_engines_match(const ir::Program& prog, const KernelConfig& cfg,
                          bool fuse, std::uint64_t seed,
                          const std::string& label) {
  const RunResult oracle = run_program(prog, cfg, fuse, seed,
                                       SimEngine::TreeWalk, 1, false);
  for (const auto engine : {SimEngine::Bytecode, SimEngine::Native}) {
    for (const int jobs : {1, 2, 4}) {
      const RunResult got = run_program(prog, cfg, fuse, seed, engine, jobs,
                                        false);
      EXPECT_TRUE(grids_bit_identical(oracle.gs, got.gs))
          << label << " " << engine_name(engine) << " jobs=" << jobs;
      EXPECT_TRUE(counters_equal(oracle.totals, got.totals))
          << label << " " << engine_name(engine) << " jobs=" << jobs;
    }
  }
  const RunResult ta = run_program(prog, cfg, fuse, seed,
                                   SimEngine::TreeWalk, 1, true);
  const RunResult tb = run_program(prog, cfg, fuse, seed,
                                   SimEngine::Bytecode, 1, true);
  EXPECT_EQ(ta.trace.size(), tb.trace.size()) << label;
  EXPECT_TRUE(ta.trace == tb.trace) << label << ": hook traces differ";
  EXPECT_TRUE(grids_bit_identical(ta.gs, tb.gs)) << label << " (hooked)";
}

KernelConfig random_config(Rng& rng, int dims) {
  KernelConfig cfg;
  const std::int64_t roll = rng.uniform_int(0, 2);
  if (dims >= 2 && roll == 1) {
    cfg.tiling = TilingScheme::StreamSerial;
  } else if (dims >= 2 && roll == 2) {
    cfg.tiling = TilingScheme::StreamConcurrent;
    cfg.stream_chunk = static_cast<int>(rng.uniform_int(3, 9));
  } else {
    cfg.tiling = TilingScheme::Spatial3D;
  }
  cfg.stream_axis = dims - 1;
  cfg.block = {static_cast<int>(rng.uniform_int(2, 7)),
               dims >= 2 ? static_cast<int>(rng.uniform_int(2, 7)) : 1,
               dims >= 3 ? static_cast<int>(rng.uniform_int(1, 5)) : 1};
  if (cfg.tiling != TilingScheme::Spatial3D) {
    cfg.block[static_cast<std::size_t>(dims - 1)] = 1;
  }
  if (rng.coin(0.3)) cfg.unroll[0] = 2;
  return cfg;
}

// ---- seeded random differential sweep --------------------------------------

TEST(BytecodeSim, RandomStencilsMatchTreeWalkOracle) {
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
      const KernelConfig cfg = random_config(rng, dims);
      const bool fuse = opts.max_stages > 1;
      expect_engines_match(prog, cfg, fuse,
                           0xFACE + static_cast<std::uint64_t>(trial),
                           str_cat("trial ", trial, " dims=", dims, " cfg ",
                                   cfg.to_string()));
    }
  }
  EXPECT_GE(trial, 20);
}

// ---- named kernels, incl. fused multi-stage + scratch ----------------------

TEST(BytecodeSim, JacobiAndDagMatchAcrossTilings) {
  const ir::Program jacobi = dsl::parse(artemis::testing::kJacobiDsl);
  const ir::Program dag = dsl::parse(artemis::testing::kDagDsl);
  for (const auto tiling : {TilingScheme::Spatial3D, TilingScheme::StreamSerial,
                            TilingScheme::StreamConcurrent}) {
    KernelConfig cfg;
    cfg.tiling = tiling;
    cfg.stream_axis = 2;
    cfg.stream_chunk = 5;
    cfg.block = {8, 4, tiling == TilingScheme::Spatial3D ? 2 : 1};
    expect_engines_match(jacobi, cfg, false, 77, "jacobi");
    expect_engines_match(dag, cfg, true, 78, "dag-fused");
  }
}

TEST(BytecodeSim, IterativePingPongMatches) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiIterativeDsl);
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  expect_engines_match(prog, cfg, false, 99, "iterative");
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
  expect_engines_match(prog, cfg, false, 11, "pending-mix");

  const RunResult r =
      run_program(prog, cfg, false, 11, SimEngine::Bytecode, 1, false);
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
  expect_engines_match(prog, cfg, false, 12, "veto-all");

  GridSet gs = GridSet::from_program(prog, 12);
  const GridSet before = gs.clone();
  const auto dev = gpumodel::p100();
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  const ExecCounters c = execute_plan(plan, gs);
  EXPECT_EQ(c.computed_points, 0);
  EXPECT_EQ(c.skipped_points, 6 * 6 * 6);
  EXPECT_EQ(c.global_write_elems, 0);
  EXPECT_TRUE(grids_bit_identical(before, gs));
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
  expect_engines_match(prog, cfg, false, 13, "negative-halo");

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
  expect_engines_match(prog, cfg, false, 14, "accumulate");

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
  const BcRegion in = interior_region(cs, views, full, false, BcRegion{});
  EXPECT_EQ(in.lo, (std::array<std::int64_t, 3>{1, 1, 1}));
  EXPECT_EQ(in.hi, (std::array<std::int64_t, 3>{15, 15, 15}));

  // A sub-box strictly inside the safe zone is all interior.
  BcRegion inner;
  inner.lo = {4, 4, 4};
  inner.hi = {10, 10, 10};
  const BcRegion in2 = interior_region(cs, views, inner, false, BcRegion{});
  EXPECT_EQ(in2.lo, inner.lo);
  EXPECT_EQ(in2.hi, inner.hi);
}

// ---- compiled reference interpreter ----------------------------------------

/// run_stencil_reference (now compiled) against a hand-rolled
/// apply_stmts_at_point loop replicating the historical implementation.
TEST(BytecodeSim, ReferenceMatchesHandRolledOracle) {
  Rng rng(0x07ACE5);
  for (int trial = 0; trial < 6; ++trial) {
    stencils::RandomStencilOptions opts;
    opts.dims = 1 + static_cast<int>(rng.uniform_int(0, 2));
    opts.max_order = 2;
    opts.allow_calls = trial % 2 == 0;
    const ir::Program prog = stencils::random_program(rng, opts);
    const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
    const ir::StencilInfo info = ir::analyze(prog, bound);

    GridSet got = GridSet::from_program(prog, 5000 + trial);
    GridSet want = got.clone();
    run_stencil_reference(prog, bound, got);

    // Historical oracle: per-point tree walk with string-keyed lookups and
    // the broad (non-center read+write) snapshot rule.
    std::map<std::string, double> env;
    for (const auto& name : info.scalars_read) {
      env[name] = want.scalar(name);
    }
    std::map<std::string, Grid3D> snapshots;
    for (const auto& [name, ai] : info.arrays) {
      if (!ai.read || !ai.written) continue;
      bool non_center = false;
      for (const auto& off : ai.read_offsets) {
        for (const auto& ix : off) {
          if (ix.is_const() || ix.offset != 0) non_center = true;
        }
      }
      if (non_center) snapshots.emplace(name, want.grid(name));
    }
    const ArrayReader reader =
        [&](const std::string& name, std::int64_t z, std::int64_t y,
            std::int64_t x) -> std::optional<double> {
      const auto snap = snapshots.find(name);
      const Grid3D& g =
          snap != snapshots.end() ? snap->second : want.grid(name);
      if (!g.in_bounds(z, y, x)) return std::nullopt;
      return g.at(z, y, x);
    };
    const ArrayWriter writer = [&](const std::string& name, std::int64_t z,
                                   std::int64_t y, std::int64_t x, double v) {
      want.grid(name).at(z, y, x) = v;
    };
    const Extents dom = want.grid(info.outputs.front()).extents();
    const int dims = static_cast<int>(prog.iterators.size());
    std::vector<std::int64_t> itv;
    for (std::int64_t z = 0; z < dom.z; ++z) {
      for (std::int64_t y = 0; y < dom.y; ++y) {
        for (std::int64_t x = 0; x < dom.x; ++x) {
          if (dims == 3) {
            itv = {z, y, x};
          } else if (dims == 2) {
            itv = {y, x};
          } else {
            itv = {x};
          }
          apply_stmts_at_point(bound.stmts, env, itv, reader, writer);
        }
      }
    }
    EXPECT_TRUE(grids_bit_identical(want, got)) << "trial " << trial;
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
