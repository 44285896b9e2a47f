// Reproduces Fig. 6: performance breakdown of ARTEMIS-generated versions.
//
// For every benchmark, two memory versions (global-only and sh+reg) are
// evaluated in four tuning regimes:
//   base   - no optimizations, fixed paper baseline block sizes
//            ((32,16) streaming for iterative stencils, (16,16) streaming
//            for register-constrained spatial stencils, (16,4,4) for the
//            non-streaming global versions);
//   TB     - autotune the thread-block size only;
//   unroll - keep the baseline block, autotune unroll factors only;
//   misc   - all optimizations together (unrolling, block size variation,
//            prefetching, retiming, folding, load/compute adjustment,
//            concurrent streaming).
//
// Expected shape (paper): block-size tuning helps broadly (strongest on
// the shmem versions of high-order stencils); unrolling helps iterative
// stencils but not the register-constrained spatial ones; misc wins
// overall; no single optimization helps uniformly.

#include <cstdio>
#include <optional>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/stencils/benchmarks.hpp"

using namespace artemis;

namespace {

struct Setup {
  ir::Program prog;
  ir::StencilCall call;
  bool iterative = false;
};

Setup make_setup(const stencils::BenchmarkSpec& spec) {
  Setup s{stencils::benchmark_program(spec.name), {}, spec.iterative};
  if (spec.iterative) {
    s.call = s.prog.steps[0].body[0].call;  // single sweep of the smoother
  } else {
    s.call = s.prog.steps[0].call;
  }
  return s;
}

/// Baseline configuration per the paper's Fig. 6 setup.
codegen::KernelConfig base_config(bool use_shmem, bool iterative,
                                  bool register_constrained) {
  codegen::KernelConfig cfg;
  if (use_shmem) {
    cfg.tiling = codegen::TilingScheme::StreamSerial;
    cfg.stream_axis = 2;
    cfg.block = iterative || !register_constrained ? std::array<int, 3>{32, 16, 1}
                                                   : std::array<int, 3>{16, 16, 1};
  } else {
    cfg.tiling = codegen::TilingScheme::Spatial3D;
    cfg.block = {16, 4, 4};
  }
  cfg.max_registers = 255;
  return cfg;
}

std::optional<double> eval_tflops(const autotune::PlanFactory& factory,
                                  const codegen::KernelConfig& cfg,
                                  const gpumodel::DeviceSpec& dev,
                                  const gpumodel::ModelParams& params) {
  try {
    const std::optional<codegen::KernelPlan> plan = factory(cfg);
    if (!plan) return std::nullopt;
    const auto ev = gpumodel::evaluate(*plan, dev, params);
    if (!ev.valid) return std::nullopt;
    return ev.tflops();
  } catch (const PlanError&) {
    return std::nullopt;
  }
}

std::string cell(std::optional<double> v) {
  return v ? format_double(*v, 3) : std::string("-");
}

}  // namespace

int main() {
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;

  std::printf("Fig. 6: per-optimization breakdown (useful TFLOPS)\n\n");
  TablePrinter table({"Benchmark", "g.base", "g.TB", "g.unroll", "g.misc",
                      "s.base", "s.TB", "s.unroll", "s.misc"});

  for (const auto& spec : stencils::paper_benchmarks()) {
    const Setup setup = make_setup(spec);
    std::vector<std::string> row = {spec.name};

    for (const bool use_shmem : {false, true}) {
      const codegen::BuildOptions opts{.use_shared_memory = use_shmem,
                                       .fuse_internal = true};
      const autotune::PlanFactory factory =
          [&setup, &dev, opts](const codegen::KernelConfig& cfg) {
            return codegen::build_plan_for_call(setup.prog, setup.call, cfg,
                                                dev, opts);
          };
      // Register-constrained? Probe the baseline's estimate.
      bool reg_constrained = false;
      try {
        if (const auto plan =
                factory(base_config(use_shmem, setup.iterative, false))) {
          reg_constrained = gpumodel::estimate_registers(*plan).total > 128;
        }
      } catch (const PlanError&) {
      }
      const codegen::KernelConfig base =
          base_config(use_shmem, setup.iterative, reg_constrained);

      // base
      row.push_back(cell(eval_tflops(factory, base, dev, params)));

      // TB: block sizes only.
      {
        autotune::TuneOptions t;
        t.disable_unroll = true;
        t.explore_tiling = false;
        t.tune_prefetch = t.tune_perspective = t.tune_concurrent_streaming =
            false;
        try {
          const auto r =
              autotune::hierarchical_tune(factory, base, dev, params, t);
          row.push_back(cell(r.best.eval.tflops()));
        } catch (const PlanError&) {
          row.push_back("-");
        }
      }

      // unroll: baseline block, unroll factors only.
      {
        autotune::TuneOptions t;
        std::optional<double> best;
        for (const auto& u : autotune::candidate_unrolls(3, t)) {
          codegen::KernelConfig cfg = base;
          cfg.unroll = u;
          for (const int budget : t.register_budgets) {
            cfg.max_registers = budget;
            const auto v = eval_tflops(factory, cfg, dev, params);
            if (v && (!best || *v > *best)) best = v;
          }
        }
        row.push_back(cell(best));
      }

      // misc: everything.
      {
        autotune::TuneOptions t;  // defaults: explore all
        codegen::KernelConfig seed = base;
        seed.retime = true;
        seed.fold = true;
        try {
          const auto r =
              autotune::hierarchical_tune(factory, seed, dev, params, t);
          row.push_back(cell(r.best.eval.tflops()));
        } catch (const PlanError&) {
          row.push_back("-");
        }
      }
    }
    table.add_row(row);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "g.* = global-memory version, s.* = shared-memory+register version.\n"
      "Paper shape: TB helps most stencils (strongest for shmem versions\n"
      "of high-order kernels); unrolling helps the iterative stencils but\n"
      "not the register-constrained spatial ones; misc (all optimizations\n"
      "together) is best overall; no single optimization helps uniformly.\n");
  return 0;
}
