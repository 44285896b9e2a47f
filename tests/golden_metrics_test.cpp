// Golden measured metrics for the paper's 11 Table I stencils, plus the
// two-stage DAG test program with its intermediate copied out (the only
// input here whose plans write back a materialized internal). Each one is
// built two ways — per-call global-memory plans, and one fused
// shared-memory plan (iterative stencils time-tiled by 2) — at a Spatial3D
// and a StreamSerial config, and every plan is measured with
// metrics::measure_plan at jobs 1 and at jobs 3: the Spatial3D plans
// through the P100's L2, the StreamSerial plans through a 48 KB L2 that
// evicts. Every PlanMetrics field
// (per stage, the plan total and per array), the executor counters of the
// measured run and a digest of the grids it leaves must reproduce, byte
// for byte, tests/golden/measured_metrics.txt.
//
// The file pins measurement across commits: a change to the counting run
// or the cache replay that moves any number has to update it on purpose.
// On a mismatch the test writes the lines it produced to
// measured_metrics.actual.txt in its working directory; diff that against
// the golden file, and copy it over when the move is intended.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/check.hpp"
#include "artemis/common/hash.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/metrics/metrics.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "test_programs.hpp"

#ifndef ARTEMIS_GOLDEN_DIR
#error "build must define ARTEMIS_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace artemis::metrics {
namespace {

using codegen::KernelConfig;
using codegen::KernelPlan;

/// Small enough that all 11 stencils measure in seconds, large enough that
/// the order-4 kernels keep interior points after fused expansion.
constexpr std::int64_t kExtent = 16;
constexpr int kIterations = 2;  ///< iterative stencils: time steps run

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_stage(const char* tag, const StageMetrics& s,
                  std::ostringstream& os) {
  os << tag << " " << s.name << " interior_points=" << s.interior_points
     << " rim_points=" << s.rim_points
     << " skipped_points=" << s.skipped_points << " flops=" << s.flops
     << " interior_flops=" << s.interior_flops
     << " rim_flops=" << s.rim_flops
     << " global_read_elems=" << s.global_read_elems
     << " global_write_elems=" << s.global_write_elems
     << " scratch_read_elems=" << s.scratch_read_elems
     << " scratch_write_elems=" << s.scratch_write_elems
     << " read_line_requests=" << s.read_line_requests
     << " write_line_requests=" << s.write_line_requests
     << " unique_read_lines=" << s.unique_read_lines
     << " unique_write_lines=" << s.unique_write_lines
     << " unique_lines=" << s.unique_lines << " tex_bytes=" << s.tex_bytes
     << " dram_read_bytes=" << s.dram_read_bytes
     << " dram_write_bytes=" << s.dram_write_bytes
     << " shm_bytes=" << s.shm_bytes
     << " working_set_bytes=" << s.working_set_bytes
     << " l2_hit_rate=" << exact(s.l2_hit_rate)
     << " redundant_load_fraction=" << exact(s.redundant_load_fraction)
     << "\n";
}

std::string grids_digest(const sim::GridSet& gs) {
  ContentHasher h;
  for (const auto& [name, g] : gs.grids()) {
    h.update(name);
    h.update(g->raw().data(), g->raw().size() * sizeof(double));
  }
  return h.hex_digest();
}

/// Measures `plan` on `gs`, replaying through `l2`'s cache, and appends
/// its golden lines.
void measure_into(const KernelPlan& plan, sim::GridSet& gs,
                  const gpumodel::DeviceSpec& l2, int jobs,
                  std::ostringstream& os) {
  sim::ExecOptions base;
  base.jobs = jobs;
  const PlanMetrics m = measure_plan(plan, gs, l2, base);
  os << "plan " << plan.name << " stages=" << m.stages.size()
     << " line_bytes=" << m.line_bytes
     << " l2_capacity_bytes=" << m.l2_capacity_bytes << "\n";
  for (const auto& s : m.stages) append_stage("stage", s, os);
  append_stage("total", m.totals, os);
  for (const auto& a : m.arrays) {
    os << "array " << a.name << " working_set_bytes=" << a.working_set_bytes
       << " read_line_requests=" << a.read_line_requests
       << " write_line_requests=" << a.write_line_requests << "\n";
  }
  const sim::ExecCounters& e = m.exec;
  os << "exec computed_points=" << e.computed_points
     << " skipped_points=" << e.skipped_points
     << " global_read_elems=" << e.global_read_elems
     << " global_write_elems=" << e.global_write_elems
     << " scratch_read_elems=" << e.scratch_read_elems
     << " scratch_write_elems=" << e.scratch_write_elems
     << " blocks=" << e.blocks << "\n";
  os << "grids " << grids_digest(gs) << "\n";
}

/// Per-call global-memory plans, run in program order (swaps included)
/// over one grid set.
void measure_global(const ir::Program& prog, const KernelConfig& cfg,
                    const gpumodel::DeviceSpec& l2, int jobs,
                    std::ostringstream& os) {
  const auto dev = gpumodel::p100();
  codegen::BuildOptions opts;
  opts.use_shared_memory = false;
  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Swap) {
      gs.swap(step.swap.a, step.swap.b);
      continue;
    }
    measure_into(codegen::build_plan(prog, {step.stencil}, cfg, dev, opts),
                 gs, l2, jobs, os);
  }
}

/// One fused shared-memory plan: an iterative stencil time-tiled by
/// kIterations, a spatial one with all its calls as stages. The occupancy
/// target of one block per SM lets resource rationing demote to global
/// memory only the arrays that do not fit one block's shared memory.
void measure_fused(const ir::Program& prog, const KernelConfig& cfg,
                   const gpumodel::DeviceSpec& l2, int jobs,
                   std::ostringstream& os) {
  const auto dev = gpumodel::p100();
  KernelConfig fused_cfg = cfg;
  fused_cfg.target_occupancy = static_cast<double>(cfg.threads_per_block()) /
                               dev.max_threads_per_sm;
  ir::Program plan_prog = prog;
  std::vector<ir::BoundStencil> stages;
  if (prog.steps.size() == 1 &&
      prog.steps[0].kind == ir::Step::Kind::Iterate) {
    auto tt = transform::time_tile_iterate(prog, prog.steps[0], kIterations);
    plan_prog = std::move(tt.augmented);
    stages = std::move(tt.stages);
    fused_cfg.time_tile = kIterations;
  } else {
    stages = transform::bind_all_calls(prog);
  }
  try {
    const KernelPlan plan =
        codegen::build_plan(plan_prog, stages, fused_cfg, dev, {});
    sim::GridSet gs = sim::GridSet::from_program(plan_prog, 1);
    measure_into(plan, gs, l2, jobs, os);
  } catch (const PlanError& e) {
    os << "infeasible " << e.what() << "\n";
  }
}

/// One build config and the L2 its measurements replay through.
struct Variant {
  const char* tag;
  KernelConfig cfg;
  gpumodel::DeviceSpec l2;
};

/// Spatial3D plans replay through the P100's 4 MB L2 (8192 sets, a power
/// of two), which holds these working sets whole. StreamSerial plans
/// replay through 48 KB (96 sets, not a power of two), small enough that
/// lines are evicted and the LRU order decides hits.
std::vector<Variant> variants() {
  Variant spatial{"spatial", {}, gpumodel::p100()};
  spatial.cfg.block = {16, 4, 2};
  Variant stream{"stream", {}, gpumodel::p100()};
  stream.cfg.block = {16, 8, 1};
  stream.cfg.tiling = codegen::TilingScheme::StreamSerial;
  stream.cfg.stream_axis = 2;
  stream.l2.l2_bytes = 48 * 1024;
  return {spatial, stream};
}

std::string measure_programs(int jobs) {
  std::vector<std::pair<std::string, ir::Program>> programs;
  for (const auto& b : stencils::paper_benchmarks()) {
    programs.emplace_back(
        b.name, stencils::benchmark_program(b.name, kExtent, kIterations));
  }
  programs.emplace_back("dag-materialized",
                        dsl::parse(artemis::testing::dag_materialized_dsl()));
  std::ostringstream os;
  for (const auto& [name, prog] : programs) {
    for (const Variant& v : variants()) {
      os << "case " << name << " global " << v.tag << "\n";
      measure_global(prog, v.cfg, v.l2, jobs, os);
      os << "case " << name << " fused " << v.tag << "\n";
      measure_fused(prog, v.cfg, v.l2, jobs, os);
    }
  }
  return os.str();
}

std::string golden() {
  const std::string path =
      std::string(ARTEMIS_GOLDEN_DIR) + "/measured_metrics.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_golden(int jobs) {
  const std::string actual = measure_programs(jobs);
  if (actual == golden()) return;
  std::ofstream("measured_metrics.actual.txt") << actual;
  ADD_FAILURE() << "measured metrics at jobs " << jobs
                << " differ from tests/golden/measured_metrics.txt; "
                   "measured_metrics.actual.txt holds what this build "
                   "produced";
}

TEST(GoldenMetrics, AtJobs1) { expect_golden(1); }

TEST(GoldenMetrics, AtJobs3) { expect_golden(3); }

}  // namespace
}  // namespace artemis::metrics
