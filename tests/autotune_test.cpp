#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "artemis/autotune/deep_tuning.hpp"
#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/registers.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "test_programs.hpp"

namespace artemis::autotune {
namespace {

using codegen::KernelConfig;
using codegen::TilingScheme;

class AutotuneTest : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;

  PlanFactory factory_for(const ir::Program& prog) {
    return [&prog, this](const KernelConfig& cfg) {
      return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg,
                                          dev_);
    };
  }
};

TEST_F(AutotuneTest, CandidateBlocksArePrunedPowersOfTwo) {
  TuneOptions opts;
  const auto blocks = candidate_blocks(3, /*streaming=*/false, opts);
  EXPECT_FALSE(blocks.empty());
  for (const auto& b : blocks) {
    for (const int v : {b[0], b[1], b[2]}) {
      EXPECT_GE(v, 4);
      EXPECT_LE(v, 256);
      EXPECT_EQ(v & (v - 1), 0) << "power of two";
    }
    EXPECT_LE(static_cast<std::int64_t>(b[0]) * b[1] * b[2], 1024);
  }
}

TEST_F(AutotuneTest, StreamingBlocksAreTwoDimensional) {
  TuneOptions opts;
  for (const auto& b : candidate_blocks(3, /*streaming=*/true, opts)) {
    EXPECT_EQ(b[2], 1);
  }
}

TEST_F(AutotuneTest, UnrollBoundsDependOnClassification) {
  TuneOptions bw;
  bw.theoretically_bandwidth_bound = true;
  TuneOptions cb;
  cb.theoretically_bandwidth_bound = false;
  int max_bw = 0, max_cb = 0;
  for (const auto& u : candidate_unrolls(3, bw)) {
    max_bw = std::max(max_bw, u[0] * u[1] * u[2]);
  }
  for (const auto& u : candidate_unrolls(3, cb)) {
    max_cb = std::max(max_cb, u[0] * u[1] * u[2]);
  }
  EXPECT_EQ(max_bw, 8);
  EXPECT_EQ(max_cb, 4);
}

TEST_F(AutotuneTest, UnrollsSortedByVolume) {
  TuneOptions opts;
  const auto unrolls = candidate_unrolls(3, opts);
  for (std::size_t i = 1; i < unrolls.size(); ++i) {
    EXPECT_LE(unrolls[i - 1][0] * unrolls[i - 1][1] * unrolls[i - 1][2],
              unrolls[i][0] * unrolls[i][1] * unrolls[i][2]);
  }
}

TEST_F(AutotuneTest, DisableUnrollCollapsesFactorList) {
  TuneOptions opts;
  opts.disable_unroll = true;
  const auto unrolls = candidate_unrolls(3, opts);
  ASSERT_EQ(unrolls.size(), 1u);
  EXPECT_EQ(unrolls[0], (std::array<int, 3>{1, 1, 1}));
}

// serialize_config is a candidate's identity: journal replay and
// leaderboard dedup treat equal lines as equal configs, so a field the
// line left out would merge distinct candidates. From a non-default
// config, changing any one of the 13 KernelConfig fields (each axis of a
// triple on its own) must give a line no other edit gives.
TEST(SerializeConfig, EveryFieldChangesTheLine) {
  KernelConfig base;
  base.block = {64, 8, 1};
  base.unroll = {2, 4, 1};
  base.tiling = TilingScheme::StreamConcurrent;
  base.stream_axis = 1;
  base.perspective = codegen::Perspective::Mixed;
  base.unroll_strategy = codegen::UnrollStrategy::Cyclic;
  base.stream_chunk = 96;
  base.prefetch = true;
  base.retime = true;
  base.fold = false;
  base.max_registers = 128;
  base.time_tile = 3;
  base.target_occupancy = 0.5;
  // Stops compiling when KernelConfig gains or loses a field: extend
  // serialize_config and the edits below with it.
  [[maybe_unused]] const auto& [block, unroll, tiling, stream_axis,
                                perspective, unroll_strategy, stream_chunk,
                                prefetch, retime, fold, max_registers,
                                time_tile, target_occupancy] = base;

  using Edit = std::function<void(KernelConfig&)>;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"block[0]", [](KernelConfig& c) { c.block[0] = 32; }},
      {"block[1]", [](KernelConfig& c) { c.block[1] = 4; }},
      {"block[2]", [](KernelConfig& c) { c.block[2] = 2; }},
      {"unroll[0]", [](KernelConfig& c) { c.unroll[0] = 1; }},
      {"unroll[1]", [](KernelConfig& c) { c.unroll[1] = 2; }},
      {"unroll[2]", [](KernelConfig& c) { c.unroll[2] = 2; }},
      {"tiling=spatial",
       [](KernelConfig& c) { c.tiling = TilingScheme::Spatial3D; }},
      {"tiling=stream",
       [](KernelConfig& c) { c.tiling = TilingScheme::StreamSerial; }},
      {"stream_axis", [](KernelConfig& c) { c.stream_axis = 2; }},
      {"perspective",
       [](KernelConfig& c) { c.perspective = codegen::Perspective::Input; }},
      {"unroll_strategy",
       [](KernelConfig& c) {
         c.unroll_strategy = codegen::UnrollStrategy::Blocked;
       }},
      {"stream_chunk", [](KernelConfig& c) { c.stream_chunk = 64; }},
      {"prefetch", [](KernelConfig& c) { c.prefetch = false; }},
      {"retime", [](KernelConfig& c) { c.retime = false; }},
      {"fold", [](KernelConfig& c) { c.fold = true; }},
      {"max_registers", [](KernelConfig& c) { c.max_registers = 64; }},
      {"time_tile", [](KernelConfig& c) { c.time_tile = 1; }},
      {"target_occupancy=0.25",
       [](KernelConfig& c) { c.target_occupancy = 0.25; }},
      {"target_occupancy unset",
       [](KernelConfig& c) { c.target_occupancy.reset(); }},
  };
  const std::string line = serialize_config(base);
  std::set<std::string> lines = {line};
  for (const auto& [field, edit] : edits) {
    KernelConfig cfg = base;
    edit(cfg);
    EXPECT_NE(serialize_config(cfg), line) << field;
    lines.insert(serialize_config(cfg));
  }
  EXPECT_EQ(lines.size(), edits.size() + 1);
}

TEST_F(AutotuneTest, HierarchicalFindsFeasibleBest) {
  const auto prog = stencils::benchmark_program("miniflux", 128);
  const auto factory = factory_for(prog);
  KernelConfig seed;
  const TuneResult r = hierarchical_tune(factory, seed, dev_, params_);
  EXPECT_TRUE(r.best.eval.valid);
  EXPECT_GT(r.best.eval.tflops(), 0.0);
  EXPECT_GT(r.evaluated_stage1, 10);
  EXPECT_FALSE(r.leaderboard.empty());
  // Leaderboard sorted best-first.
  for (std::size_t i = 1; i < r.leaderboard.size(); ++i) {
    EXPECT_LE(r.leaderboard[i - 1].time_s, r.leaderboard[i].time_s);
  }
}

TEST_F(AutotuneTest, HierarchicalCheaperThanExhaustive) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);
  ir::StencilCall call = prog.steps[0].body[0].call;
  const PlanFactory factory = [&](const KernelConfig& cfg) {
    return codegen::build_plan_for_call(prog, call, cfg, dev_);
  };
  KernelConfig seed;
  seed.tiling = TilingScheme::StreamSerial;
  seed.stream_axis = 2;
  const TuneResult h = hierarchical_tune(factory, seed, dev_, params_);
  const TuneResult e = exhaustive_tune(factory, seed, dev_, params_);
  // The Section V claim: hierarchical tuning reaches similar performance
  // at a fraction of the evaluations (5h vs >24h with OpenTuner).
  EXPECT_LT(h.total_evaluated(), e.total_evaluated() / 3);
  EXPECT_LE(h.best.time_s, e.best.time_s * 1.10);
}

TEST_F(AutotuneTest, RegisterEscalationSkipsSpillingBudgets) {
  const auto prog = stencils::benchmark_program("rhs4center", 128);
  const auto factory = factory_for(prog);
  KernelConfig seed;
  const TuneResult r = hierarchical_tune(factory, seed, dev_, params_);
  // A 600-FLOP kernel cannot run spill-free at 32 registers: escalation
  // must have skipped small budgets.
  EXPECT_GT(r.skipped_spilling, 0);
  EXPECT_GE(r.best.config.max_registers, 128);
}

/// Residency of every array, as one comparable line.
std::string placement_line(const codegen::KernelPlan& plan) {
  std::string line;
  for (const auto& [name, pl] : plan.placement) {
    line += name + ":" + std::to_string(static_cast<int>(pl.space)) + "/" +
            std::to_string(pl.fold_group) + (pl.user_pinned ? "p " : " ");
  }
  return line;
}

// The precondition of one-build register escalation: neither a plan nor
// its register estimate reads max_registers, so the plan a candidate
// builds once serves every budget. Checked on every candidate the
// hierarchical tuner builds, at every budget, for two paper stencils with
// retimed candidates and for a stencil whose candidates fold (no Table I
// stencil has a fold group). Fails as soon as planning or the estimate
// starts to depend on the budget.
TEST_F(AutotuneTest, PlansAndRegisterEstimatesIgnoreTheBudget) {
  const auto paper = [](const std::string& name) {
    const ir::Program prog = stencils::benchmark_program(name);
    if (prog.steps[0].kind == ir::Step::Kind::Iterate) {
      auto tt = transform::time_tile_iterate(prog, prog.steps[0], 1);
      return std::make_pair(std::move(tt.augmented), std::move(tt.stages));
    }
    return std::make_pair(prog, transform::bind_all_calls(prog));
  };
  const ir::Program folding = dsl::parse(R"(
    parameter L=64, M=64, N=64;
    iterator k, j, i;
    double a[L,M,N], b[L,M,N], o[L,M,N];
    copyin a, b;
    stencil s (O, A, B) {
      O[k][j][i] = A[k][j][i]*B[k][j][i] + A[k][j][i+1]*B[k][j][i+1]
                 + A[k][j-1][i]*B[k][j-1][i] + A[k+1][j][i]*B[k+1][j][i];
    }
    s (o, a, b);
    copyout o;
  )");
  const std::vector<std::pair<ir::Program, std::vector<ir::BoundStencil>>>
      cases = {paper("7pt-smoother"), paper("hypterm"),
               {folding, transform::bind_all_calls(folding)}};

  const std::vector<int> budgets = TuneOptions{}.register_budgets;
  bool retimed = false, folded = false;
  for (const auto& [prog, stages] : cases) {
    const codegen::StageTemplate tmpl(prog, stages);
    std::vector<KernelConfig> built;
    const PlanFactory factory = [&](const KernelConfig& cfg) {
      built.push_back(cfg);
      return codegen::configure(tmpl, cfg, dev_);
    };
    KernelConfig seed = codegen::config_from_pragma(
        prog, stages.front().pragma, static_cast<int>(prog.iterators.size()));
    seed.retime = true;
    seed.fold = true;
    TuneOptions opts;
    opts.jobs = 1;
    (void)hierarchical_tune(factory, seed, dev_, params_, opts);
    ASSERT_GT(built.size(), 100u);

    for (KernelConfig cfg : built) {
      std::optional<codegen::KernelPlan> first;
      for (const int budget : budgets) {
        cfg.max_registers = budget;
        std::optional<codegen::KernelPlan> plan;
        try {
          plan = codegen::configure(tmpl, cfg, dev_);
        } catch (const PlanError&) {
        }
        if (budget == budgets.front()) {
          first = std::move(plan);
          continue;
        }
        const std::string what = serialize_config(cfg);
        ASSERT_EQ(plan.has_value(), first.has_value()) << what;
        if (!plan) continue;
        EXPECT_EQ(gpumodel::estimate_registers(*plan).total,
                  gpumodel::estimate_registers(*first).total)
            << what;
        EXPECT_EQ(plan->shmem_bytes_per_block, first->shmem_bytes_per_block)
            << what;
        EXPECT_EQ(placement_line(*plan), placement_line(*first)) << what;
        EXPECT_EQ(plan->retimed, first->retimed) << what;
        EXPECT_EQ(plan->fold_groups, first->fold_groups) << what;
      }
      if (first) {
        retimed |= first->retimed;
        folded |= !first->fold_groups.empty();
      }
    }
  }
  EXPECT_TRUE(retimed) << "no retimed candidate: the check lost its reach";
  EXPECT_TRUE(folded) << "no folded candidate: the check lost its reach";
}

TEST_F(AutotuneTest, InfeasibleSpaceThrowsPlanError) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);
  ir::StencilCall call = prog.steps[0].body[0].call;
  const PlanFactory factory = [&](const KernelConfig&) -> codegen::KernelPlan {
    throw PlanError("nothing is feasible");
  };
  KernelConfig seed;
  EXPECT_THROW(hierarchical_tune(factory, seed, dev_, params_), PlanError);
}

TEST_F(AutotuneTest, RandomTunerDeterministicAndFeasible) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);
  ir::StencilCall call = prog.steps[0].body[0].call;
  const PlanFactory factory = [&](const KernelConfig& cfg) {
    return codegen::build_plan_for_call(prog, call, cfg, dev_);
  };
  KernelConfig seed;
  TuneOptions opts;
  const auto a = random_tune(factory, seed, dev_, params_, opts, 200, 7);
  const auto b = random_tune(factory, seed, dev_, params_, opts, 200, 7);
  const auto c = random_tune(factory, seed, dev_, params_, opts, 200, 8);
  EXPECT_EQ(a.best.time_s, b.best.time_s);   // same seed, same result
  EXPECT_TRUE(a.best.eval.valid);
  EXPECT_EQ(a.total_evaluated(), 200);
  // Different seed explores a different sample (usually different best).
  EXPECT_TRUE(c.best.eval.valid);
}

TEST_F(AutotuneTest, RandomTunerImprovesWithBudget) {
  const auto prog = stencils::benchmark_program("rhs4center", 128);
  const auto factory = factory_for(prog);
  KernelConfig seed;
  TuneOptions opts;
  const auto small = random_tune(factory, seed, dev_, params_, opts, 20, 3);
  const auto big = random_tune(factory, seed, dev_, params_, opts, 600, 3);
  EXPECT_LE(big.best.time_s, small.best.time_s);
}

// ---- deep tuning and the opt(T) dynamic program -----------------------------

TEST_F(AutotuneTest, DeepTuneFindsCusp) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  DeepTuneOptions opts;
  opts.max_time_tile = 6;
  const DeepTuneResult r = deep_tune(prog, prog.steps[0], dev_, params_, opts);
  ASSERT_GE(r.entries.size(), 2u);
  // Fig. 4: performance improves with fusion then drops; the tipping point
  // is an interior tile size under 5 (paper: "under 4 time steps" for all
  // evaluated iterative stencils; our model places it at 2-4).
  EXPECT_GE(r.tipping_point, 2);
  EXPECT_LE(r.tipping_point, 4);
  // Per-invocation time grows with x, per-step time dips at the cusp.
  EXPECT_LT(r.entries[0].time_s, r.entries.back().time_s);
}

TEST_F(AutotuneTest, FusionScheduleSumsToT) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 256);
  DeepTuneOptions opts;
  opts.max_time_tile = 4;
  const DeepTuneResult r = deep_tune(prog, prog.steps[0], dev_, params_, opts);
  for (const int T : {1, 2, 3, 5, 7, 12, 13, 25, 64}) {
    const auto sched = fusion_schedule(r, T);
    int sum = 0;
    for (const int x : sched) sum += x;
    EXPECT_EQ(sum, T) << "T=" << T;
  }
}

/// A tile tuner that tunes nothing: version x takes times[x - 1] seconds
/// per invocation, is bandwidth-bound at DRAM below x = `cusp`, and is
/// infeasible from x = `infeasible_at` on. Records each x it is asked for.
TileTuner fake_tiles(std::vector<double> times, int cusp, int infeasible_at,
                     std::vector<int>* asked) {
  return [=](int x) {
    asked->push_back(x);
    if (x >= infeasible_at) throw PlanError("no feasible configuration");
    DeepTuneEntry e;
    e.time_tile = x;
    e.time_s = times.at(static_cast<std::size_t>(x - 1));
    if (x < cusp) e.report.dram = profile::LevelVerdict::BandwidthBound;
    return e;
  };
}

std::vector<int> tiles_of(const DeepTuneResult& r) {
  std::vector<int> tiles;
  for (const auto& e : r.entries) tiles.push_back(e.time_tile);
  return tiles;
}

TEST_F(AutotuneTest, DeepTuneStopsOneVersionPastTheCusp) {
  // Per step: 1.0, 0.8, 0.7, 0.75, 0.8. x = 3 is the first version that
  // is not bandwidth-bound; x = 4 is recorded past it, x = 5 never tuned.
  const std::vector<double> times = {1.0, 1.6, 2.1, 3.0, 4.0, 6.0};
  std::vector<int> asked;
  const DeepTuneResult r = deep_tune(6, fake_tiles(times, 3, 99, &asked));
  EXPECT_EQ(asked, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(tiles_of(r), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(r.entries[1].time_s, 1.6);
  EXPECT_EQ(r.tipping_point, 3);

  // A cusp at x = 1 still records x = 2; a loop that never reaches its
  // cusp stops at max_time_tile.
  asked.clear();
  EXPECT_EQ(tiles_of(deep_tune(6, fake_tiles(times, 1, 99, &asked))),
            (std::vector<int>{1, 2}));
  asked.clear();
  const DeepTuneResult capped = deep_tune(5, fake_tiles(times, 99, 99, &asked));
  EXPECT_EQ(tiles_of(capped), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(capped.tipping_point, 3);
}

TEST_F(AutotuneTest, DeepTuneEndsAtTheFirstInfeasibleVersion) {
  const std::vector<double> times = {1.0, 1.6, 2.1, 3.0};
  std::vector<int> asked;
  const DeepTuneResult r = deep_tune(4, fake_tiles(times, 99, 3, &asked));
  EXPECT_EQ(asked, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(tiles_of(r), (std::vector<int>{1, 2}));
  EXPECT_EQ(r.tipping_point, 2);

  asked.clear();
  const DeepTuneResult none = deep_tune(4, fake_tiles(times, 99, 1, &asked));
  EXPECT_EQ(asked, (std::vector<int>{1}));
  EXPECT_TRUE(none.entries.empty());
  EXPECT_THROW(fusion_schedule(none, 4), Error);
}

TEST_F(AutotuneTest, DynamicProgramMatchesBruteForce) {
  // Craft explicit f(x) costs and check opt(T) against exhaustive search.
  DeepTuneResult r;
  const double f[] = {0.0, 10.0, 14.0, 30.0};  // f(1)=10, f(2)=14, f(3)=30
  for (int x = 1; x <= 3; ++x) {
    DeepTuneEntry e;
    e.time_tile = x;
    e.time_s = f[x];
    r.entries.push_back(e);
  }
  for (int T = 1; T <= 12; ++T) {
    // Brute force over compositions via DP with explicit enumeration.
    std::vector<double> best(static_cast<std::size_t>(T) + 1, 1e99);
    best[0] = 0;
    for (int t = 1; t <= T; ++t) {
      for (int x = 1; x <= std::min(3, t); ++x) {
        best[static_cast<std::size_t>(t)] =
            std::min(best[static_cast<std::size_t>(t)],
                     f[x] + best[static_cast<std::size_t>(t - x)]);
      }
    }
    const auto sched = fusion_schedule(r, T);
    EXPECT_NEAR(schedule_time(r, sched), best[static_cast<std::size_t>(T)],
                1e-12)
        << "T=" << T;
  }
}

TEST_F(AutotuneTest, ScheduleUsesCheapestComposition) {
  DeepTuneResult r;
  DeepTuneEntry e1;
  e1.time_tile = 1;
  e1.time_s = 10.0;
  DeepTuneEntry e4;
  e4.time_tile = 4;
  e4.time_s = 12.0;  // 4 steps for barely more than 1: always prefer x=4
  r.entries = {e1, e4};
  const auto sched = fusion_schedule(r, 13);
  // 13 = 4+4+4+1.
  EXPECT_EQ(sched, (std::vector<int>{4, 4, 4, 1}));
}

TEST_F(AutotuneTest, ScheduleTimeThrowsOnUnknownTile) {
  DeepTuneResult r;
  DeepTuneEntry e1;
  e1.time_tile = 1;
  e1.time_s = 1.0;
  r.entries = {e1};
  EXPECT_THROW(schedule_time(r, {2}), Error);
}

// ---- opt(T) edge cases ------------------------------------------------------

namespace {

DeepTuneResult tuned_tiles(std::initializer_list<std::pair<int, double>> fs) {
  DeepTuneResult r;
  for (const auto& [x, t] : fs) {
    DeepTuneEntry e;
    e.time_tile = x;
    e.time_s = t;
    r.entries.push_back(e);
  }
  return r;
}

}  // namespace

TEST_F(AutotuneTest, FusionScheduleZeroIterationsIsEmpty) {
  const auto r = tuned_tiles({{1, 1.0}, {2, 1.5}});
  const auto sched = fusion_schedule(r, 0);
  EXPECT_TRUE(sched.empty());
  EXPECT_DOUBLE_EQ(schedule_time(r, sched), 0.0);
}

TEST_F(AutotuneTest, FusionScheduleSingleIteration) {
  const auto r = tuned_tiles({{1, 1.0}, {2, 1.5}});
  EXPECT_EQ(fusion_schedule(r, 1), (std::vector<int>{1}));
}

TEST_F(AutotuneTest, FusionScheduleThrowsBelowSmallestTile) {
  // Only x=2 and x=4 were tuned: T=1 cannot be composed.
  const auto r = tuned_tiles({{2, 1.0}, {4, 1.8}});
  EXPECT_THROW(fusion_schedule(r, 1), Error);
  EXPECT_THROW(fusion_schedule(r, 3), Error);   // 3 = 2+1? no 1 available
  EXPECT_THROW(fusion_schedule(r, 5), Error);
  // Even T is still fine: 4+2 (2.8) beats 2+2+2 (3.0).
  EXPECT_EQ(fusion_schedule(r, 6), (std::vector<int>{4, 2}));
}

TEST_F(AutotuneTest, FusionScheduleNonDivisibleUsesMixedTiles) {
  // x=2 and x=3: T=7 is not a multiple of either, but 3+2+2 composes it.
  const auto r = tuned_tiles({{2, 1.0}, {3, 1.2}});
  const auto sched = fusion_schedule(r, 7);
  int sum = 0;
  for (const int x : sched) sum += x;
  EXPECT_EQ(sum, 7);
  // The cheapest composition is 3+2+2 (3.2) over 3+3+... (infeasible for
  // the 1 left over) — brute-force check.
  EXPECT_NEAR(schedule_time(r, sched), 3.2, 1e-12);
}

TEST_F(AutotuneTest, FusionScheduleGapTilesSumExactly) {
  // Sparse tile set with gaps (2 and 5 only): every representable T must
  // compose exactly, never approximately.
  const auto r = tuned_tiles({{2, 1.0}, {5, 2.0}});
  for (const int T : {2, 4, 5, 7, 9, 10, 12, 14, 19, 100}) {
    const auto sched = fusion_schedule(r, T);
    int sum = 0;
    for (const int x : sched) {
      EXPECT_TRUE(x == 2 || x == 5) << "T=" << T;
      sum += x;
    }
    EXPECT_EQ(sum, T) << "T=" << T;
  }
  EXPECT_THROW(fusion_schedule(r, 1), Error);
  EXPECT_THROW(fusion_schedule(r, 3), Error);
}

TEST_F(AutotuneTest, FusionScheduleBruteForceSmallT) {
  // Exhaustive composition enumeration for small T against the DP.
  const auto r = tuned_tiles({{1, 3.0}, {2, 5.0}, {3, 6.5}});
  const double f[] = {0.0, 3.0, 5.0, 6.5};
  for (int T = 0; T <= 9; ++T) {
    // Enumerate all compositions of T from {1,2,3} recursively.
    double best = T == 0 ? 0.0 : 1e99;
    std::vector<std::vector<int>> stack = {{}};
    while (!stack.empty()) {
      auto cur = std::move(stack.back());
      stack.pop_back();
      int sum = 0;
      double cost = 0;
      for (const int x : cur) {
        sum += x;
        cost += f[x];
      }
      if (sum == T && !cur.empty()) best = std::min(best, cost);
      if (sum < T) {
        for (int x = 1; x <= 3 && sum + x <= T; ++x) {
          auto next = cur;
          next.push_back(x);
          stack.push_back(std::move(next));
        }
      }
    }
    const auto sched = fusion_schedule(r, T);
    EXPECT_NEAR(schedule_time(r, sched), best, 1e-12) << "T=" << T;
  }
}

TEST_F(AutotuneTest, FusionScheduleRejectsBadInputs) {
  EXPECT_THROW(fusion_schedule(DeepTuneResult{}, 4), Error);  // no entries
  const auto r = tuned_tiles({{1, 1.0}});
  EXPECT_THROW(fusion_schedule(r, -1), Error);
}

}  // namespace
}  // namespace artemis::autotune
