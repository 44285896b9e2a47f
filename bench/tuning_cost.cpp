// Reproduces the Section V tuning-cost claim: hierarchical autotuning
// reaches the performance of exhaustive (OpenTuner-style) search at a
// small fraction of the configurations evaluated. The paper reports >24h
// of exhaustive tuning vs <5h hierarchical for a spatial 7-point Jacobi;
// in the simulator the honest unit is "configurations evaluated".

#include <cstdio>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/stencils/benchmarks.hpp"

using namespace artemis;

int main() {
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;

  TablePrinter table({"benchmark", "tuner", "configs", "skipped (spill)",
                      "infeasible", "best TFLOPS"});

  for (const char* name : {"7pt-smoother", "helmholtz", "rhs4center"}) {
    const auto prog = stencils::benchmark_program(name);
    const ir::StencilCall call =
        stencils::benchmark(name).iterative ? prog.steps[0].body[0].call
                                            : prog.steps[0].call;
    const autotune::PlanFactory factory =
        [&prog, call, &dev](const codegen::KernelConfig& cfg) {
          return codegen::build_plan_for_call(prog, call, cfg, dev);
        };
    codegen::KernelConfig seed;
    seed.tiling = codegen::TilingScheme::StreamSerial;
    seed.stream_axis = 2;

    const auto h =
        autotune::hierarchical_tune(factory, seed, dev, params, {});
    autotune::TuneOptions ex;
    const auto e = autotune::exhaustive_tune(factory, seed, dev, params, ex);
    // Generic random search (the OpenTuner stand-in) at the hierarchical
    // tuner's budget.
    const auto r = autotune::random_tune(factory, seed, dev, params, ex,
                                         h.total_evaluated());

    table.add_row({name, "hierarchical",
                   std::to_string(h.total_evaluated()),
                   std::to_string(h.skipped_spilling),
                   std::to_string(h.infeasible),
                   format_double(h.best.eval.tflops(), 4)});
    table.add_row({name, "random (same budget)",
                   std::to_string(r.total_evaluated()),
                   std::to_string(r.skipped_spilling),
                   std::to_string(r.infeasible),
                   format_double(r.best.eval.tflops(), 4)});
    table.add_row({name, "exhaustive", std::to_string(e.total_evaluated()),
                   std::to_string(e.skipped_spilling),
                   std::to_string(e.infeasible),
                   format_double(e.best.eval.tflops(), 4)});
  }

  std::printf("Section V: hierarchical vs exhaustive autotuning cost\n\n%s\n",
              table.to_string().c_str());
  std::printf(
      "Shape check: hierarchical tuning evaluates a small fraction of the\n"
      "exhaustive space (paper: <5h vs >24h wall clock with OpenTuner) while\n"
      "reaching performance within a few percent. Register-budget\n"
      "escalation additionally skips spilling configurations outright.\n");
  return 0;
}
