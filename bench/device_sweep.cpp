// Device-family sweep: validate the parameterized device specs and the
// model-guided search pruning across GPU generations.
//
// For every modeled device (K40, P100, V100, A100, H100) the Fig.-4 deep
// tuning experiment (7pt smoother) runs twice: once with the full tuner
// and once with the analytical pre-filter (--prune-k, default 8). The
// harness asserts the pruned run chooses the byte-identical schedule at
// the same modelled time while evaluating >= --min-reduction (default 5)
// times fewer candidates, and writes the machine-readable results to
// --out (default BENCH_device_sweep.json) for the CI model-pruning job.
//
// Every number is a pure function of the DeviceSpec: absolute TFLOPS
// scale with the device peak while the fusion cusp tracks the machine
// balance (more bandwidth-starved devices reward deeper fusion).

#include <cstdio>
#include <cstring>
#include <fstream>

#include "artemis/autotune/search.hpp"
#include "artemis/common/json.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/telemetry.hpp"

using namespace artemis;

namespace {

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

/// Everything "equal final plan" means: the chosen per-kernel configs,
/// the fusion schedule, the deep-tuning tipping point, and the modelled
/// end-to-end time.
std::string plan_signature(const driver::ProgramResult& r) {
  std::string sig = str_cat("time_s=", r.time_s);
  for (const auto& k : r.kernels) {
    sig += str_cat("|", k.name, "=", autotune::serialize_config(k.config));
  }
  sig += "|fusion=";
  for (const int x : r.fusion_schedule) sig += str_cat(" ", x);
  if (r.deep_tuning.has_value()) {
    sig += str_cat("|tipping=", r.deep_tuning->tipping_point);
  }
  return sig;
}

struct SweepRun {
  driver::ProgramResult result;
  std::int64_t evaluated = 0;     ///< tuner.evaluated counter delta
  std::int64_t model_pruned = 0;  ///< tuner.model_pruned counter delta
};

SweepRun run_one(const ir::Program& prog, const gpumodel::DeviceSpec& dev,
                 const gpumodel::ModelParams& params, int prune_k) {
  auto strat = driver::artemis_strategy();
  strat.tune.model_prune_k = prune_k;
  auto& collector = telemetry::Collector::global();
  collector.clear();
  collector.enable();
  SweepRun run;
  run.result = driver::optimize_program(prog, dev, params, strat);
  const auto counters = collector.counters();
  collector.disable();
  const auto counter = [&](const char* name) -> std::int64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  run.evaluated = counter("tuner.evaluated");
  run.model_pruned = counter("tuner.model_pruned");
  return run;
}

double best_tflops(const driver::ProgramResult& r) {
  double best = r.tflops;
  if (r.deep_tuning.has_value()) {
    for (const auto& e : r.deep_tuning->entries) {
      best = std::max(best, e.tflops);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int prune_k = static_cast<int>(flag_int(argc, argv, "prune-k", 8));
  const double min_reduction =
      static_cast<double>(flag_int(argc, argv, "min-reduction", 5));
  const std::string out_path =
      flag_str(argc, argv, "out", "BENCH_device_sweep.json");
  const std::string kernel =
      flag_str(argc, argv, "kernel", "7pt-smoother");

  const gpumodel::ModelParams params;
  const auto prog = stencils::benchmark_program(kernel);

  TablePrinter table({"device", "alpha (TFLOPS)", "alpha/beta_dram",
                      "tipping point", "best TFLOPS", "evals full",
                      "evals pruned", "reduction", "plan equal"});
  Json report = Json::object();
  report.set("kernel", Json(kernel));
  report.set("prune_k", Json(prune_k));
  report.set("min_reduction", Json(min_reduction));
  Json rows = Json::array();
  bool ok = true;

  for (const auto& dev : gpumodel::device_family()) {
    const SweepRun full = run_one(prog, dev, params, /*prune_k=*/0);
    const SweepRun pruned = run_one(prog, dev, params, prune_k);
    const bool plans_equal =
        plan_signature(full.result) == plan_signature(pruned.result);
    const double reduction =
        pruned.evaluated > 0 ? static_cast<double>(full.evaluated) /
                                   static_cast<double>(pruned.evaluated)
                             : 0;
    const bool row_ok = plans_equal && reduction >= min_reduction &&
                        full.model_pruned == 0 && pruned.model_pruned > 0;
    ok = ok && row_ok;

    table.add_row({dev.name, format_double(dev.peak_dp_flops / 1e12, 3),
                   format_double(dev.balance_dram(), 3),
                   full.result.deep_tuning.has_value()
                       ? std::to_string(full.result.deep_tuning->tipping_point)
                       : "-",
                   format_double(best_tflops(full.result), 3),
                   std::to_string(full.evaluated),
                   std::to_string(pruned.evaluated),
                   format_double(reduction, 2), plans_equal ? "yes" : "NO"});

    Json row = Json::object();
    row.set("device", Json(dev.name));
    row.set("alpha_tflops", Json(dev.peak_dp_flops / 1e12));
    row.set("balance_dram", Json(dev.balance_dram()));
    row.set("balance_tex", Json(dev.balance_tex()));
    row.set("balance_shm", Json(dev.balance_shm()));
    if (full.result.deep_tuning.has_value()) {
      row.set("tipping_point",
              Json(full.result.deep_tuning->tipping_point));
    }
    row.set("best_tflops", Json(best_tflops(full.result)));
    row.set("time_s_full", Json(full.result.time_s));
    row.set("time_s_pruned", Json(pruned.result.time_s));
    row.set("evaluated_full", Json(full.evaluated));
    row.set("evaluated_pruned", Json(pruned.evaluated));
    row.set("model_pruned", Json(pruned.model_pruned));
    row.set("eval_reduction", Json(reduction));
    row.set("plans_equal", Json(plans_equal));
    rows.push_back(std::move(row));
  }
  report.set("devices", std::move(rows));
  report.set("ok", Json(ok));

  std::ofstream(out_path) << report.dump(2) << "\n";
  std::printf("Device family: deep tuning + model-guided pruning "
              "(prune-k %d)\n\n%s\n",
              prune_k, table.to_string().c_str());
  std::printf("Report written to %s\n", out_path.c_str());
  if (!ok) {
    std::printf("ERROR: a device failed the pruning contract (plan "
                "mismatch or reduction < %.1fx)\n",
                min_reduction);
    return 1;
  }
  return 0;
}
