// Reproduces Table II: operational intensity for different fusion degrees
// of the 7pt-smoother (plus the untuned global-memory version).
//
// Each (x x 1) version is autotuned like Fig. 4's deep tuning; the OI of
// the winning configuration at DRAM, texture cache and shared memory is
// printed. Expected shape (paper): OI_dram and OI_tex grow roughly
// linearly with the fusion degree while OI_shm stays flat around 0.2 --
// fusion shifts the bound from DRAM/tex onto shared memory until the
// kernel stops being bandwidth-bound (the cusp).

#include <cstdio>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/profile/profiler.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"

using namespace artemis;

int main() {
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;
  const auto prog = stencils::benchmark_program("7pt-smoother");

  TablePrinter table({"M", "global", "1x1", "2x1", "3x1", "4x1", "5x1"});
  std::vector<std::string> row_dram = {"OI_dram"};
  std::vector<std::string> row_tex = {"OI_tex"};
  std::vector<std::string> row_shm = {"OI_shm"};

  // Untuned global version (the paper's "global" column).
  {
    codegen::BuildOptions opts;
    opts.use_shared_memory = false;
    codegen::KernelConfig cfg;
    cfg.block = {16, 4, 4};
    const auto plan = codegen::build_plan_for_call(
        prog, prog.steps[0].body[0].call, cfg, dev, opts);
    const auto rep = profile::profile_plan(plan, dev, params);
    row_dram.push_back(format_double(rep.oi_dram, 3));
    row_tex.push_back(format_double(rep.oi_tex, 3));
    row_shm.push_back("-");
  }

  // Tuned (x x 1) fused versions.
  driver::Strategy strat = driver::artemis_strategy();
  for (int x = 1; x <= 5; ++x) {
    const auto tt = transform::time_tile_iterate(prog, prog.steps[0], x);
    const autotune::PlanFactory factory =
        [&tt, &dev](const codegen::KernelConfig& cfg) {
          return codegen::build_plan(tt.augmented, tt.stages, cfg, dev);
        };
    codegen::KernelConfig seed;
    seed.tiling = codegen::TilingScheme::StreamSerial;
    seed.stream_axis = 2;
    seed.time_tile = x;
    try {
      const auto tuned =
          autotune::hierarchical_tune(factory, seed, dev, params, strat.tune);
      const auto rep = profile::profile_plan(
          codegen::build_plan(tt.augmented, tt.stages, tuned.best.config, dev),
          dev, params);
      row_dram.push_back(format_double(rep.oi_dram, 3));
      row_tex.push_back(format_double(rep.oi_tex, 3));
      row_shm.push_back(format_double(rep.oi_shm, 3));
    } catch (const PlanError&) {
      row_dram.push_back("infeasible");
      row_tex.push_back("infeasible");
      row_shm.push_back("infeasible");
    }
  }

  table.add_row(row_dram);
  table.add_row(row_tex);
  table.add_row(row_shm);

  std::printf(
      "Table II: OI for different fusion degrees of 7pt-smoother\n"
      "(machine balance: alpha/beta dram=6.42 tex=2.35 shm=0.49)\n\n%s\n",
      table.to_string().c_str());
  std::printf(
      "Paper shape: OI_dram 0.97 -> 2.01 -> 2.84 -> 4.26 -> 5.90; OI_tex\n"
      "0.98 -> 3.06 -> 4.51 -> 5.56 -> 6.42; OI_shm flat ~0.2. Fusion makes\n"
      "the kernel less bandwidth-bound at DRAM/tex; the bound shifts onto\n"
      "shared memory.\n");
  return 0;
}
