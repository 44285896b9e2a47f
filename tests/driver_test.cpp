#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artemis/driver/context.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/storage/vfs.hpp"
#include "recipe_check.hpp"
#include "test_programs.hpp"

namespace artemis::driver {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;
};

TEST_F(DriverTest, IterativeScheduleCoversAllSteps) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 256);
  const auto r = optimize_program(prog, dev_, params_);
  int total = 0;
  for (const int x : r.fusion_schedule) total += x;
  EXPECT_EQ(total, 12);  // T = 12
  ASSERT_TRUE(r.deep_tuning.has_value());
  EXPECT_GE(r.deep_tuning->entries.size(), 2u);
  EXPECT_GT(r.tflops, 0.0);
  int invocations = 0;
  for (const auto& k : r.kernels) invocations += k.invocations;
  EXPECT_EQ(invocations, static_cast<int>(r.fusion_schedule.size()));
}

TEST_F(DriverTest, ArtemisBeatsUnfusedGlobalOnIterative) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  const auto artemis = optimize_program(prog, dev_, params_);
  const auto global = optimize_program(prog, dev_, params_,
                                       global_strategy(false));
  const auto stream = optimize_program(prog, dev_, params_,
                                       global_strategy(true));
  EXPECT_GT(artemis.tflops, global.tflops);
  // Section VIII-F: streaming without shared memory has worse locality
  // than plain 3D tiling.
  EXPECT_GT(global.tflops, stream.tflops);
}

TEST_F(DriverTest, OrderingMatchesFigure5) {
  // PPCG < STENCILGEN < ARTEMIS on iterative stencils.
  const auto prog = stencils::benchmark_program("27pt-smoother", 512);
  const auto artemis = optimize_program(prog, dev_, params_);
  const auto sg = optimize_program(prog, dev_, params_,
                                   stencilgen_strategy());
  const auto ppcg = optimize_program(prog, dev_, params_, ppcg_strategy());
  EXPECT_GT(artemis.tflops, sg.tflops);
  EXPECT_GT(sg.tflops, ppcg.tflops);
}

TEST_F(DriverTest, StencilgenRejectsMixedDims) {
  const auto prog = stencils::benchmark_program("addsgd4", 128);
  EXPECT_THROW(
      optimize_program(prog, dev_, params_, stencilgen_strategy()), Error);
}

TEST_F(DriverTest, FissionTriggersForRegisterBoundKernel) {
  const auto prog = stencils::benchmark_program("rhs4sgcurv", 320);
  const auto r = optimize_program(prog, dev_, params_);
  // The monolithic kernel spills at 255 registers; ARTEMIS must emit
  // fission candidates and adopt a multi-kernel schedule.
  EXPECT_FALSE(r.candidate_dsl.empty());
  EXPECT_GT(r.kernels.size(), 1u);
  // Fissioned sub-kernels are spill-free.
  for (const auto& k : r.kernels) {
    EXPECT_EQ(k.eval.regs.spilled(k.config.max_registers), 0) << k.name;
  }
}

TEST_F(DriverTest, FissionCandidateDslReparses) {
  const auto prog = stencils::benchmark_program("rhs4sgcurv", 128);
  const auto r = optimize_program(prog, dev_, params_);
  ASSERT_FALSE(r.candidate_dsl.empty());
  for (const auto& text : r.candidate_dsl) {
    EXPECT_NO_THROW(dsl::parse(text));
  }
}

TEST_F(DriverTest, ExpertAssignBeatsNaiveDefault) {
  // Section VIII-E: addsgd4 with #assign outperforms the naive default
  // that stages every array (including the 1D coefficients, in tile-shaped
  // buffers) in shared memory. The comparison isolates resource
  // assignment, so the profiling-driven fallback to the global version is
  // disabled like the paper's experiment.
  Strategy s = artemis_strategy();
  s.profile_guided = false;
  const auto with = dsl::parse(stencils::addsgd_dsl(320, 2, true));
  const auto without = dsl::parse(stencils::addsgd_dsl(320, 2, false));
  const auto r_with = optimize_program(with, dev_, params_, s);
  const auto r_without = optimize_program(without, dev_, params_, s);
  EXPECT_GT(r_with.tflops, r_without.tflops * 1.1);
}

TEST_F(DriverTest, HyptermSharedMatchesGlobal) {
  // Section VIII-F: hypterm stays DRAM-bound with shared memory; ARTEMIS
  // must fall back to (or match) the tuned global version.
  const auto prog = stencils::benchmark_program("hypterm", 320);
  const auto artemis = optimize_program(prog, dev_, params_);
  const auto global = optimize_program(prog, dev_, params_,
                                       global_strategy(false));
  EXPECT_GE(artemis.tflops, global.tflops * 0.95);
}

TEST_F(DriverTest, HintsSurface) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 512);
  const auto r = optimize_program(prog, dev_, params_);
  // The bandwidth-bound baseline must produce at least one guideline.
  EXPECT_FALSE(r.hints.empty());
}

TEST_F(DriverTest, LaunchOverheadCounted) {
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);
  gpumodel::ModelParams heavy = params_;
  heavy.launch_overhead_s = 1.0;  // absurd: launches dominate
  const auto r = optimize_program(prog, dev_, heavy);
  EXPECT_GT(r.time_s, static_cast<double>(r.kernel_launches) * 0.99);
}

TEST_F(DriverTest, HalideAutoschedulerGapGrowsWithComplexity) {
  // Section I: the autoscheduler stays close on simple stencils but loses
  // ~2x+ on complex register-bound kernels.
  const auto simple = stencils::benchmark_program("27pt-smoother", 256);
  const auto complex_prog = stencils::benchmark_program("rhs4sgcurv", 320);
  const auto ha = halide_auto_strategy();
  const double gap_simple =
      optimize_program(simple, dev_, params_).tflops /
      optimize_program(simple, dev_, params_, ha).tflops;
  const double gap_complex =
      optimize_program(complex_prog, dev_, params_).tflops /
      optimize_program(complex_prog, dev_, params_, ha).tflops;
  EXPECT_LT(gap_simple, 1.6);
  EXPECT_GT(gap_complex, 2.0);
}

TEST_F(DriverTest, AllBenchmarksRunUnderAllStrategies) {
  for (const auto& spec : stencils::paper_benchmarks()) {
    const auto prog = stencils::benchmark_program(spec.name, 96, 4);
    for (const auto& strat :
         {artemis_strategy(), ppcg_strategy(), stencilgen_strategy(),
          global_strategy(false), global_strategy(true)}) {
      try {
        const auto r = optimize_program(prog, dev_, params_, strat);
        EXPECT_GT(r.tflops, 0.0) << spec.name << "/" << strat.name;
        EXPECT_GT(r.time_s, 0.0) << spec.name << "/" << strat.name;
      } catch (const Error&) {
        // Only STENCILGEN may reject (mixed dims).
        EXPECT_EQ(strat.name, "stencilgen") << spec.name;
      }
    }
  }
}

TEST_F(DriverTest, RecipesRebuildTheTunedPlansUnderTheBaselines) {
  // golden_plans_test checks ARTEMIS' own strategy; here every baseline
  // on the 11 Table I stencils at paper extents. A global strategy's
  // plans stage nothing in shared memory.
  for (const auto& strat : {global_strategy(false), global_strategy(true),
                            ppcg_strategy(), stencilgen_strategy()}) {
    for (const auto& spec : stencils::paper_benchmarks()) {
      const std::string context = spec.name + "/" + strat.name;
      ProgramResult r;
      try {
        r = optimize_program(stencils::benchmark_program(spec.name), dev_,
                             params_, strat);
      } catch (const Error&) {
        EXPECT_EQ(strat.name, "stencilgen") << context;
        continue;
      }
      testing::expect_recipes_rebuild(r, dev_, params_, context);
      if (strat.use_shared_memory) continue;
      for (const auto& k : r.kernels) {
        EXPECT_FALSE(k.recipe.use_shared_memory) << context;
        for (const auto& [array, place] :
             kernel_plan(k.recipe, k.config, dev_).placement) {
          EXPECT_NE(place.space, ir::MemSpace::Shared)
              << context << " kernel " << k.name << " array " << array;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ArtemisContext reentrancy: the library must hold no process-global
// mutable state, so independent contexts driven from interleaved threads
// produce exactly the plans sequential runs do.
// ---------------------------------------------------------------------------

std::string context_tune_bytes(const char* device, const char* source) {
  storage::MemVfs vfs;
  ContextOptions opts;
  opts.device = device_by_name(device);
  opts.vfs = &vfs;
  opts.store_root = "store";
  opts.jobs = 1;
  ArtemisContext ctx(opts);
  return ctx.tune(source).plan_bytes;
}

TEST(DriverContextTest, InterleavedContextsMatchSequentialPlans) {
  const std::string seq_p100 =
      context_tune_bytes("p100", testing::kJacobiDsl);
  const std::string seq_v100 = context_tune_bytes("v100", testing::kDagDsl);
  ASSERT_FALSE(seq_p100.empty());
  ASSERT_NE(seq_p100, seq_v100);

  for (int round = 0; round < 3; ++round) {
    std::string got_p100, got_v100;
    std::thread a([&] {
      got_p100 = context_tune_bytes("p100", testing::kJacobiDsl);
    });
    std::thread b([&] {
      got_v100 = context_tune_bytes("v100", testing::kDagDsl);
    });
    a.join();
    b.join();
    EXPECT_EQ(got_p100, seq_p100) << "round " << round;
    EXPECT_EQ(got_v100, seq_v100) << "round " << round;
  }
}

TEST(DriverContextTest, OneContextServesConcurrentTunesLikeSequential) {
  const std::string ref_jacobi =
      context_tune_bytes("p100", testing::kJacobiDsl);
  const std::string ref_dag = context_tune_bytes("p100", testing::kDagDsl);

  storage::MemVfs vfs;
  ContextOptions opts;
  opts.vfs = &vfs;
  opts.store_root = "store";
  opts.jobs = 1;
  ArtemisContext ctx(opts);
  std::string got_jacobi, got_dag;
  std::thread a([&] { got_jacobi = ctx.tune(testing::kJacobiDsl).plan_bytes; });
  std::thread b([&] { got_dag = ctx.tune(testing::kDagDsl).plan_bytes; });
  a.join();
  b.join();
  EXPECT_EQ(got_jacobi, ref_jacobi);
  EXPECT_EQ(got_dag, ref_dag);

  const auto stats = ctx.stats();
  EXPECT_EQ(stats.tunes, 2u);
  EXPECT_EQ(stats.tuner_runs, 2u);
  ASSERT_NE(ctx.store(), nullptr);
  EXPECT_EQ(ctx.store()->keys().size(), 2u);
}

#ifdef ARTEMIS_SOURCE_DIR
// Source-level tripwire behind the reentrancy guarantee: no mutable
// static data — `static`/`thread_local` variables at namespace or
// function scope — anywhere in the driver library or the service layer.
// Immutable statics (`static const`/`static constexpr`) and static
// member *functions* (their declarations carry a parameter list) are
// fine; stateful ones are exactly what would make two contexts
// interfere.
TEST(DriverContextTest, NoMutableStaticStateInDriverOrService) {
  namespace fs = std::filesystem;
  const std::string roots[] = {
      std::string(ARTEMIS_SOURCE_DIR) + "/artemis/driver",
      std::string(ARTEMIS_SOURCE_DIR) + "/artemis/service"};
  std::vector<std::string> violations;
  int files_scanned = 0;
  for (const auto& root : roots) {
    ASSERT_TRUE(fs::is_directory(root)) << root;
    for (const auto& entry : fs::directory_iterator(root)) {
      const std::string path = entry.path().string();
      if (path.size() < 4 || (path.substr(path.size() - 4) != ".cpp" &&
                              path.substr(path.size() - 4) != ".hpp")) {
        continue;
      }
      ++files_scanned;
      std::ifstream in(path);
      ASSERT_TRUE(in.good()) << path;
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        const std::size_t comment = line.find("//");
        std::string code =
            comment == std::string::npos ? line : line.substr(0, comment);
        for (const char* keyword : {"static", "thread_local"}) {
          const std::size_t pos = code.find(keyword);
          if (pos == std::string::npos) continue;
          // Token boundaries: reject static_cast / static_assert /
          // identifiers merely containing the keyword.
          const std::size_t end = pos + std::string(keyword).size();
          if (pos > 0 && (std::isalnum(code[pos - 1]) || code[pos - 1] == '_'))
            continue;
          if (end < code.size() &&
              (std::isalnum(code[end]) || code[end] == '_'))
            continue;
          // Immutable statics are allowed.
          std::size_t after = end;
          while (after < code.size() && std::isspace(code[after])) ++after;
          if (code.compare(after, 5, "const") == 0) continue;
          // A parameter list on the same line marks a static member
          // function declaration, which carries no state.
          if (code.find('(', end) != std::string::npos) continue;
          violations.push_back(path + ":" + std::to_string(lineno) + ": " +
                               line);
        }
      }
    }
  }
  EXPECT_GE(files_scanned, 8);
  EXPECT_TRUE(violations.empty())
      << "mutable static state in the reentrant layers:\n"
      << [&] {
           std::ostringstream os;
           for (const auto& v : violations) os << "  " << v << "\n";
           return os.str();
         }();
}
#endif  // ARTEMIS_SOURCE_DIR

}  // namespace
}  // namespace artemis::driver
