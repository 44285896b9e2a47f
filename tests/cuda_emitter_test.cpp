#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <utility>
#include <vector>

#include "artemis/codegen/cuda_emitter.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "test_programs.hpp"

namespace artemis::codegen {
namespace {

class EmitterTest : public ::testing::Test {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();

  CudaSource emit(const ir::Program& prog, const KernelConfig& cfg,
                  BuildOptions opts = {}) {
    const auto plan =
        build_plan_for_call(prog, last_call(prog), cfg, dev_, opts);
    return emit_cuda(prog, plan);
  }

  static const ir::StencilCall& last_call(const ir::Program& prog) {
    for (auto it = prog.steps.rbegin(); it != prog.steps.rend(); ++it) {
      if (it->kind == ir::Step::Kind::Call) return it->call;
      if (it->kind == ir::Step::Kind::Iterate) {
        return it->body.front().call;
      }
    }
    throw Error("no call");
  }
};

TEST_F(EmitterTest, StreamingKernelHasListing2Shape) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg = config_from_pragma(prog, prog.stencils[0].pragma, 3);
  cfg.prefetch = true;
  const CudaSource src = emit(prog, cfg);

  // Listing 2 structure: shared center plane, +/- register planes, the
  // serial k sweep with barriers and the rotate/load epilogue.
  EXPECT_NE(src.kernel.find("__global__ void jacobi_kernel("),
            std::string::npos);
  // block (32,16) with the pragma's unroll j=2: tile 34 x 34.
  EXPECT_NE(src.kernel.find("__shared__ double in_shm_c0[34][34];"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("double in_reg_m1, in_reg_p1;"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("for (int k = 1; k < L - 1; ++k)"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("__syncthreads();"), std::string::npos);
  EXPECT_NE(src.kernel.find("in_reg_m1 = in_shm_c0[j-j0+1][i-i0+1];"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("in_pref"), std::string::npos);
}

TEST_F(EmitterTest, SpatialKernelHasSharedTileAndGuard) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.block = {8, 8, 4};
  const CudaSource src = emit(prog, cfg);
  EXPECT_NE(src.kernel.find("__shared__ double in_shm[6][10][10];"),
            std::string::npos);
  // Cooperative load loops and halo-shifted local indices.
  EXPECT_NE(src.kernel.find("for (int lk = threadIdx.z; lk < 6;"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("in_shm[k-k0+1][j-j0+1][i-i0+1]"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("if (k >= 1 && k < L - 1 && j >= 1 && j < M - 1 "
                            "&& i >= 1 && i < N - 1)"),
            std::string::npos);
  EXPECT_NE(src.kernel.find("blockIdx.z"), std::string::npos);
}

TEST_F(EmitterTest, GlobalVersionIndexesLinearly) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  BuildOptions opts;
  opts.use_shared_memory = false;
  const CudaSource src = emit(prog, cfg, opts);
  EXPECT_EQ(src.kernel.find("__shared__"), std::string::npos);
  EXPECT_NE(src.kernel.find("in[(((k)*M + (j))*N + (i+1))]"),
            std::string::npos);
}

TEST_F(EmitterTest, UnrolledBodyEmitsPragmaLoops) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::Spatial3D;
  cfg.unroll = {2, 2, 1};
  BuildOptions opts;
  opts.use_shared_memory = false;
  const CudaSource src = emit(prog, cfg, opts);
  EXPECT_NE(src.kernel.find("#pragma unroll"), std::string::npos);
  EXPECT_NE(src.kernel.find("blocked distribution"), std::string::npos);
}

TEST_F(EmitterTest, RetimedStreamingEmitsAccumulators) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg = config_from_pragma(prog, prog.stencils[0].pragma, 3);
  cfg.retime = true;
  const auto plan =
      build_plan_for_call(prog, last_call(prog), cfg, dev_);
  ASSERT_TRUE(plan.retimed);
  const CudaSource src = emit_cuda(prog, plan);
  EXPECT_NE(src.kernel.find("retimed accumulators"), std::string::npos);
  // Decomposed accumulation statements appear.
  EXPECT_NE(src.kernel.find("+="), std::string::npos);
}

TEST_F(EmitterTest, HostLauncherHasGridAndCopies) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg = config_from_pragma(prog, prog.stencils[0].pragma, 3);
  const CudaSource src = emit(prog, cfg);
  EXPECT_NE(src.host.find("dim3 grid("), std::string::npos);
  EXPECT_NE(src.host.find("dim3 block(32, 16, 1);"), std::string::npos);
  EXPECT_NE(src.host.find("cudaMemcpyHostToDevice"), std::string::npos);
  EXPECT_NE(src.host.find("cudaMemcpy(h_out"), std::string::npos);
  EXPECT_NE(src.host.find("jacobi_kernel<<<grid, block>>>"),
            std::string::npos);
}

TEST_F(EmitterTest, ConcurrentStreamingSweepsChunk) {
  const auto prog = dsl::parse(artemis::testing::kJacobiDsl);
  KernelConfig cfg;
  cfg.tiling = TilingScheme::StreamConcurrent;
  cfg.stream_axis = 2;
  cfg.stream_chunk = 64;
  cfg.block = {32, 8, 1};
  const CudaSource src = emit(prog, cfg);
  EXPECT_NE(src.kernel.find("k_lo = blockIdx.z * 64"), std::string::npos);
  EXPECT_NE(src.kernel.find("for (int k = k_lo; k < k_hi; ++k)"),
            std::string::npos);
}

TEST_F(EmitterTest, KernelAndLauncherNamesAreIdentifiers) {
  // A fused plan is named by its stages joined with '+'; the kernel and
  // launcher it emits must still be C identifiers. Plans: diffuse's
  // scheduled kernels (time-tiled) and the two-stage DAG fused.
  std::vector<std::pair<ir::Program, KernelPlan>> plans;
  std::ifstream in(ARTEMIS_EXAMPLES_DIR "/diffuse.dsl");
  std::ostringstream source;
  source << in.rdbuf();
  const auto schedule =
      driver::optimize_program(dsl::parse(source.str()), dev_);
  ASSERT_EQ(schedule.kernels.size(), 2u);
  for (const auto& k : schedule.kernels) {
    ir::Program bound;
    KernelPlan plan = driver::kernel_plan(k.recipe, k.config, dev_, &bound);
    plans.emplace_back(std::move(bound), std::move(plan));
  }
  const auto dag = dsl::parse(artemis::testing::kDagDsl);
  plans.emplace_back(dag, build_plan(dag, transform::bind_all_calls(dag),
                                     KernelConfig{}, dev_));
  ASSERT_EQ(plans.back().second.stages.size(), 2u);

  const std::regex identifier("[A-Za-z_][A-Za-z0-9_]*");
  for (const auto& [prog, plan] : plans) {
    const std::string text = emit_cuda(prog, plan).full();
    for (const char* pattern :
         {R"(__global__ void (\S+)_kernel\()", R"(void launch_(\S+)\()",
          R"(\s(\S+)_kernel<<<)"}) {
      std::smatch m;
      ASSERT_TRUE(std::regex_search(text, m, std::regex(pattern)))
          << plan.name << ": " << pattern;
      EXPECT_TRUE(std::regex_match(m[1].str(), identifier))
          << plan.name << ": " << m[1];
    }
  }
}

TEST_F(EmitterTest, EmitsForEveryBenchmark) {
  // Smoke: every Table I kernel emits non-trivial CUDA in both a global
  // spatial and (where feasible) a streaming shmem version.
  for (const auto& spec : stencils::paper_benchmarks()) {
    const auto prog = stencils::benchmark_program(spec.name, 64);
    KernelConfig cfg;
    cfg.tiling = TilingScheme::StreamSerial;
    cfg.stream_axis = 2;
    cfg.block = {16, 8, 1};
    try {
      const auto src = emit(prog, cfg);
      EXPECT_NE(src.kernel.find("__global__"), std::string::npos)
          << spec.name;
      EXPECT_GT(src.kernel.size(), 200u) << spec.name;
    } catch (const PlanError&) {
      // Capacity-infeasible at this block: acceptable for the biggest
      // kernels; the global version must still emit.
      BuildOptions opts;
      opts.use_shared_memory = false;
      const auto src = emit(prog, cfg, opts);
      EXPECT_NE(src.kernel.find("__global__"), std::string::npos)
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace artemis::codegen
