// Native SIMD engine: lowering, tier dispatch, fallback, and equivalence
// properties that go beyond the differential sweeps in bytecode_sim_test.

#include <gtest/gtest.h>

#include <cstring>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "test_programs.hpp"

namespace artemis::sim {
namespace {

using codegen::KernelConfig;

/// Compile one bound call into the raw bytecode + view tables the native
/// layer consumes (the same binding executor.cpp performs, minus tiling).
struct RawStage {
  GridSet gs;
  SlotMap arrays;
  SlotMap scalars;
  CompiledStencil cs;
  std::vector<ArrayView> views;
  std::vector<std::uint8_t> is_scratch;
  std::vector<double> scalar_vals;
  BcRegion domain;

  explicit RawStage(const ir::Program& prog, std::uint64_t seed)
      : gs(GridSet::from_program(prog, seed)) {
    const ir::BoundStencil bound = ir::bind_call(prog, prog.steps[0].call);
    const ir::StencilInfo info = ir::analyze(prog, bound);
    for (const auto& [name, ai] : info.arrays) arrays.add(name);
    for (const auto& name : info.scalars_read) scalars.add(name);
    for (int s = 0; s < scalars.size(); ++s) {
      scalar_vals.push_back(gs.scalar(scalars.name(s)));
    }
    const int dims = static_cast<int>(prog.iterators.size());
    cs = compile_stmts(bound.stmts, dims, arrays, scalars);
    is_scratch.assign(static_cast<std::size_t>(arrays.size()), 0);

    views.resize(static_cast<std::size_t>(arrays.size()));
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
    const Extents e = gs.grid(info.outputs.front()).extents();
    domain.lo = {0, 0, 0};
    domain.hi = {e.z, e.y, e.x};
  }
};

bool grids_bit_identical(const GridSet& a, const GridSet& b) {
  for (const auto& [name, ga] : a.grids()) {
    const Grid3D& gb = b.grid(name);
    if (std::memcmp(ga->raw().data(), gb.raw().data(),
                    ga->raw().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ---- lowering --------------------------------------------------------------

TEST(NativeEngine, JacobiLowers) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const auto r = native::lower_stencil(st.cs, st.is_scratch);
  ASSERT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.prog.dims, 3);
  EXPECT_EQ(r.prog.stores.size(), 1u);
  // 7-point star: six +/-1 neighbors and the center, all distinct loads.
  EXPECT_EQ(r.prog.loads.size(), 7u);
  // The source reads the center twice (a*A[...] and A[...]*6.0): CSE
  // dedupes the load, but the per-point read count must stay at the
  // bytecode engine's 8 so analytic counters match it bit for bit.
  EXPECT_EQ(r.prog.greads_pp, 8);
  EXPECT_EQ(r.prog.flops_per_point, st.cs.flops_per_point);
  // The z-axis star column {-1, 0, +1} forms one rotating chain.
  ASSERT_FALSE(r.prog.chains.empty());
  bool has_len3 = false;
  for (const auto& ch : r.prog.chains) {
    has_len3 = has_len3 || ch.members.size() == 3;
  }
  EXPECT_TRUE(has_len3);
}

TEST(NativeEngine, RefusesNonInjectiveStore) {
  // A store that drops iterator i maps every x to one element, so the
  // result depends on point order — the lowering must refuse, never
  // reorder. The DSL frontend cannot express this (outputs must write
  // the center point), so mutate the compiled store access directly.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  RawStage st(prog, 1);
  const int out_slot = st.arrays.slot("out");
  ASSERT_GE(out_slot, 0);
  for (auto& a : st.cs.accesses) {
    if (a.array == out_slot) {
      a.sel[2] = 3;  // x coordinate pinned to the constant 0
      a.off[2] = 0;
    }
  }
  const auto r = native::lower_stencil(st.cs, st.is_scratch);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("does not address every iterator"),
            std::string::npos)
      << r.reason;
}

TEST(NativeEngine, RefusesPointDependentPendingAlias) {
  // Statement 2 reads B with a transposed selector after statement 1
  // wrote B: whether the read hits the pending buffer depends on the
  // point, which no static lowering can resolve.
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
  RawStage st(prog, 1);
  const auto r = native::lower_stencil(st.cs, st.is_scratch);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("pending-write aliasing"), std::string::npos)
      << r.reason;
}

// ---- tier dispatch ---------------------------------------------------------

TEST(NativeEngine, AllSupportedTiersBitIdentical) {
  // Execute the same interior box on every tier the host supports; strict
  // mode must land bit-for-bit on the bytecode result, per tier.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);

  std::vector<native::Tier> tiers = {native::Tier::Scalar};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    tiers.push_back(native::Tier::Avx2);
  }
  if (__builtin_cpu_supports("avx512f")) {
    tiers.push_back(native::Tier::Avx512);
  }
#endif

  RawStage want(prog, 9);
  {
    BcCounters c;
    run_compiled_region(want.cs, want.views, want.scalar_vals.data(),
                        want.domain, want.domain, false, c);
  }
  for (const native::Tier tier : tiers) {
    RawStage got(prog, 9);
    const auto r = native::lower_stencil(got.cs, got.is_scratch);
    ASSERT_TRUE(r.ok) << r.reason;
    BcCounters c;
    native::run_native_region(r.prog, got.cs, got.views,
                              got.scalar_vals.data(), got.domain,
                              got.domain, false, c, nullptr, tier);
    EXPECT_TRUE(grids_bit_identical(want.gs, got.gs))
        << "tier " << native::tier_name(tier);
  }
}

TEST(NativeEngine, TierNamesAndDispatchTableAreSane) {
  EXPECT_STREQ(native::tier_name(native::Tier::Scalar), "scalar");
  EXPECT_STREQ(native::tier_name(native::Tier::Avx2), "avx2");
  EXPECT_STREQ(native::tier_name(native::Tier::Avx512), "avx512");
  for (const auto t :
       {native::Tier::Scalar, native::Tier::Avx2, native::Tier::Avx512}) {
    EXPECT_NE(native::run_box(t), nullptr);
  }
  // Whatever cpuid picked must be a dispatchable tier.
  EXPECT_NE(native::run_box(native::active_tier()), nullptr);
}

// ---- engine plumbing -------------------------------------------------------

TEST(NativeEngine, EngineNamesRoundTrip) {
  EXPECT_EQ(engine_by_name("bytecode"), SimEngine::Bytecode);
  EXPECT_EQ(engine_by_name("native"), SimEngine::Native);
  for (const auto e : {SimEngine::Bytecode, SimEngine::Native}) {
    EXPECT_EQ(engine_by_name(engine_name(e)), e);
  }
  // The tree walk is the plan-free verify oracle, not an engine.
  EXPECT_THROW(engine_by_name("tree"), Error);
  EXPECT_THROW(engine_by_name("treewalk"), Error);
  EXPECT_THROW(engine_by_name("cuda"), Error);
}

TEST(NativeEngine, RefusedStageFallsBackAndStillMatches) {
  // A plan whose stage cannot lower must silently run on the bytecode
  // engine and stay bit-identical — the refusal is a performance event,
  // not a semantic one (observable via the sim.native_fallbacks counter).
  // kTransposeDsl's transposed pending-write read is the pending-alias
  // refusal.
  const ir::Program prog = dsl::parse(artemis::testing::kTransposeDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {4, 4, 4};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  telemetry::Collector::global().enable();
  telemetry::Collector::global().clear();
  GridSet bc = GridSet::from_program(prog, 17);
  GridSet nat = bc.clone();
  execute_plan(plan, bc);
  ExecOptions no;
  no.engine = SimEngine::Native;
  execute_plan(plan, nat, no);
  const auto counters = telemetry::Collector::global().counters();
  telemetry::Collector::global().disable();

  EXPECT_TRUE(grids_bit_identical(bc, nat));
  const auto it = counters.find("sim.native_fallbacks");
  ASSERT_NE(it, counters.end());
  EXPECT_GT(it->second, 0);
}

TEST(NativeEngine, CompileCacheDedupesIdenticalStages) {
  // Two executions of one plan compile the statement list once; the
  // second hits the content-addressed cache.
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 8, 8};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  telemetry::Collector::global().enable();
  telemetry::Collector::global().clear();
  GridSet a = GridSet::from_program(prog, 2);
  GridSet b = GridSet::from_program(prog, 2);
  execute_plan(plan, a);
  execute_plan(plan, b);
  const auto counters = telemetry::Collector::global().counters();
  telemetry::Collector::global().disable();

  const auto hit = counters.find("sim.compile_hits");
  ASSERT_NE(hit, counters.end());
  EXPECT_GE(hit->second, 1);
}

}  // namespace
}  // namespace artemis::sim
