// Device-family sweep: the Fig.-4 deep tuning experiment (7pt smoother,
// or --kernel=NAME) run once on every modeled device (K40, P100, V100,
// A100, H100). Prints each device's peak, machine balances, fusion
// tipping point, best TFLOPS, modelled time and evaluated-candidate
// count, and writes the same rows to --out (default
// BENCH_device_sweep.json).
//
// Every number is a pure function of the DeviceSpec: absolute TFLOPS
// scale with the device peak while the fusion cusp moves with the machine
// balances.

#include <cstdio>
#include <cstring>
#include <fstream>

#include "artemis/common/json.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/telemetry.hpp"

using namespace artemis;

namespace {

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

struct SweepRun {
  driver::ProgramResult result;
  std::int64_t evaluated = 0;  ///< tuner.evaluated counter delta
};

SweepRun run_one(const ir::Program& prog, const gpumodel::DeviceSpec& dev,
                 const gpumodel::ModelParams& params) {
  auto& collector = telemetry::Collector::global();
  collector.clear();
  collector.enable();
  SweepRun run;
  run.result = driver::optimize_program(prog, dev, params);
  const auto counters = collector.counters();
  collector.disable();
  const auto it = counters.find("tuner.evaluated");
  run.evaluated = it == counters.end() ? 0 : it->second;
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
  const std::string out_path =
      flag_str(argc, argv, "out", "BENCH_device_sweep.json");
  const std::string kernel =
      flag_str(argc, argv, "kernel", "7pt-smoother");

  const gpumodel::ModelParams params;
  const auto prog = stencils::benchmark_program(kernel);

  TablePrinter table({"device", "alpha (TFLOPS)", "alpha/beta_dram",
                      "tipping point", "best TFLOPS", "time (ms)",
                      "evaluated"});
  Json report = Json::object();
  report.set("kernel", Json(kernel));
  Json rows = Json::array();

  for (const auto& dev : gpumodel::device_family()) {
    const SweepRun run = run_one(prog, dev, params);
    const auto& deep = run.result.deep_tuning;

    table.add_row({dev.name, format_double(dev.peak_dp_flops / 1e12, 3),
                   format_double(dev.balance_dram(), 3),
                   deep.has_value() ? std::to_string(deep->tipping_point)
                                    : "-",
                   format_double(best_tflops(run.result), 3),
                   format_double(run.result.time_s * 1e3, 3),
                   std::to_string(run.evaluated)});

    Json row = Json::object();
    row.set("device", Json(dev.name));
    row.set("alpha_tflops", Json(dev.peak_dp_flops / 1e12));
    row.set("balance_dram", Json(dev.balance_dram()));
    row.set("balance_tex", Json(dev.balance_tex()));
    row.set("balance_shm", Json(dev.balance_shm()));
    if (deep.has_value()) row.set("tipping_point", Json(deep->tipping_point));
    row.set("best_tflops", Json(best_tflops(run.result)));
    row.set("time_s", Json(run.result.time_s));
    row.set("evaluated", Json(run.evaluated));
    rows.push_back(std::move(row));
  }
  report.set("devices", std::move(rows));

  std::ofstream(out_path) << report.dump(2) << "\n";
  std::printf("Device family: deep tuning\n\n%s\n", table.to_string().c_str());
  std::printf("Report written to %s\n", out_path.c_str());
  return 0;
}
