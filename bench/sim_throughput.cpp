// Simulator throughput: compiled bytecode vs native SIMD, serial and
// parallel.
//
// Measures stencil applications per second (points/sec) of the functional
// executor on paper kernels under three configurations:
//
//   bytecode   -- the slot-resolved compiled engine (SimEngine::Bytecode),
//                 one worker;
//   native     -- the register-allocated SIMD interior engine
//                 (SimEngine::Native), one worker;
//   parallel   -- the native engine with the work-stealing block sweep.
//
// All three produce bit-identical grids (cross-checked here); the
// differential test suite (bytecode_sim_test, native_engine_test) proves
// the stronger per-counter/per-trace equivalences against the plan-free
// oracle. Results are written to a machine-readable JSON report (--out,
// default BENCH_sim.json) consumed by the CI smoke check, which asserts
// native >= bytecode on every kernel.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/json.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/stencils/benchmarks.hpp"

using namespace artemis;

namespace {

struct RunOutcome {
  sim::GridSet gs;
  std::int64_t points = 0;  ///< computed stencil applications
  double seconds = 0;
};

/// Execute every plan of the program once with the given engine options.
RunOutcome run_once(const ir::Program& prog,
                    const std::vector<codegen::KernelPlan>& plans,
                    std::uint64_t seed, const sim::ExecOptions& opts) {
  RunOutcome r{sim::GridSet::from_program(prog, seed), 0, 0};
  std::size_t next_plan = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Swap) {
      r.gs.swap(step.swap.a, step.swap.b);
      continue;
    }
    const auto c = sim::execute_plan(plans.at(next_plan++), r.gs, opts);
    r.points += c.computed_points;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return r;
}

bool outputs_identical(const ir::Program& prog, const sim::GridSet& a,
                       const sim::GridSet& b) {
  for (const auto& out : prog.copyout) {
    const Grid3D& ga = a.grid(out);
    const Grid3D& gb = b.grid(out);
    if (std::memcmp(ga.raw().data(), gb.raw().data(),
                    ga.raw().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::int64_t flag_int(int argc, char** argv, const char* name,
                      std::int64_t dflt) {
  const std::string prefix = str_cat("--", name, "=");
  for (int i = 1; i < argc; ++i) {
    if (starts_with(argv[i], prefix)) {
      return std::stoll(std::string(argv[i]).substr(prefix.size()));
    }
  }
  return dflt;
}

std::string flag_str(int argc, char** argv, const char* name,
                     const std::string& dflt) {
  const std::string prefix = str_cat("--", name, "=");
  for (int i = 1; i < argc; ++i) {
    if (starts_with(argv[i], prefix)) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t extent = flag_int(argc, argv, "extent", 64);
  const int reps = static_cast<int>(flag_int(argc, argv, "reps", 3));
  const int jobs = static_cast<int>(flag_int(argc, argv, "jobs", 0));
  const std::string out_path = flag_str(argc, argv, "out", "BENCH_sim.json");
  const std::string kernels =
      flag_str(argc, argv, "kernels", "7pt-smoother,helmholtz,hypterm");

  const auto dev = gpumodel::p100();
  const int par_jobs = jobs > 0 ? jobs : default_jobs();

  TablePrinter table({"kernel", "points", "bytecode pts/s", "native pts/s",
                      "parallel pts/s", "native x", "parallel x",
                      "identical"});
  Json report = Json::object();
  report.set("extent", Json(extent));
  report.set("reps", Json(reps));
  report.set("parallel_jobs", Json(par_jobs));
  report.set("native_tier",
             Json(sim::native::tier_name(sim::native::active_tier())));
  Json rows = Json::array();
  bool all_identical = true;

  for (const auto& name : split(kernels, ',')) {
    // One time step keeps iterative kernels comparable to spatial ones.
    const ir::Program prog = stencils::benchmark_program(name, extent, 1);
    // Pin arrays to global memory: the wide SW4/CNS kernels exceed the
    // device's shared-memory budget under the default config, and the
    // functional engines are what this harness measures anyway.
    codegen::BuildOptions gopts;
    gopts.use_shared_memory = false;
    std::vector<codegen::KernelPlan> plans;
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind != ir::ExecStep::Kind::Stencil) continue;
      std::vector<std::string> args;
      for (const auto& p : step.stencil.def->params) {
        args.push_back(step.stencil.binding.at(p));
      }
      plans.push_back(codegen::build_plan_for_call(
          prog, ir::StencilCall{step.stencil.name, std::move(args)},
          codegen::KernelConfig{}, dev, gopts));
    }

    sim::ExecOptions bytecode;
    bytecode.engine = sim::SimEngine::Bytecode;
    bytecode.jobs = 1;
    sim::ExecOptions native = bytecode;
    native.engine = sim::SimEngine::Native;
    sim::ExecOptions parallel = native;
    parallel.jobs = par_jobs;

    const auto best = [&](const sim::ExecOptions& opts) {
      RunOutcome first = run_once(prog, plans, 42, opts);
      double best_pps = first.points / first.seconds;
      for (int r = 1; r < reps; ++r) {
        const RunOutcome o = run_once(prog, plans, 42, opts);
        best_pps = std::max(best_pps, o.points / o.seconds);
      }
      first.seconds = first.points / best_pps;
      return first;
    };

    const RunOutcome bc = best(bytecode);
    const RunOutcome nat = best(native);
    const RunOutcome par = best(parallel);
    const double bc_pps = bc.points / bc.seconds;
    const double nat_pps = nat.points / nat.seconds;
    const double par_pps = par.points / par.seconds;
    const bool identical = outputs_identical(prog, bc.gs, nat.gs) &&
                           outputs_identical(prog, bc.gs, par.gs);
    all_identical = all_identical && identical;

    table.add_row({name, std::to_string(bc.points),
                   format_double(bc_pps, 4), format_double(nat_pps, 4),
                   format_double(par_pps, 4),
                   format_double(nat_pps / bc_pps, 3),
                   format_double(par_pps / nat_pps, 3),
                   identical ? "yes" : "NO"});

    Json row = Json::object();
    row.set("kernel", Json(name));
    row.set("points", Json(bc.points));
    row.set("engine", Json("native"));
    row.set("bytecode_pps", Json(bc_pps));
    row.set("native_pps", Json(nat_pps));
    row.set("parallel_pps", Json(par_pps));
    row.set("speedup_native", Json(nat_pps / bc_pps));
    row.set("speedup_parallel", Json(par_pps / nat_pps));
    row.set("outputs_identical", Json(identical));
    rows.push_back(std::move(row));
  }
  report.set("kernels", std::move(rows));

  std::ofstream(out_path) << report.dump(2) << "\n";
  std::printf("Simulator throughput (extent %lld^3, best of %d, %d jobs)\n\n%s\n",
              static_cast<long long>(extent), reps, par_jobs,
              table.to_string().c_str());
  std::printf("Report written to %s\n", out_path.c_str());
  if (!all_identical) {
    std::printf("ERROR: engines disagree on some kernel outputs\n");
    return 1;
  }
  return 0;
}
