// perfbench — the ARTEMIS performance benchmark program.
//
//   perfbench --workload tune-paper|serve-mix|sim-measure --seed N
//             --seconds S --trace 0|1 --state-dir DIR
//             [--trace-file PATH] [--commit ID]
//
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs
// (--trace 1) the per-layer metrics; each workload reports all of them,
// measured on its own load. Traced runs record spans around every call
// into a layer and replay the workload's inputs one level down; numbers
// only one workload can measure go to the environment record. The last
// line of standard output is the JSON result; the exit status is non-zero
// when any output check failed. perfbench/run.py builds this binary and is
// the command to run.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace perfbench;
using artemis::Json;

namespace {

/// The modules of src/artemis/ whose public functions the traced runs wrap
/// in spans named "<layer>.<function>". The robust layer has no span of
/// its own (the journal is written inside the service); the workloads
/// report its bytes from the counting Vfs.
constexpr const char* kSpanLayers[] = {
    "driver",  "dsl",     "ir",  "autotune", "codegen", "gpumodel",
    "profile", "storage", "service", "sim",  "metrics", "common"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tune-paper|serve-mix|sim-measure "
               "--seed N --seconds S --trace 0|1 --state-dir DIR\n"
               "                 [--trace-file PATH] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v), have_seed = true;
      else if (a == "--seconds") args.seconds = std::stoi(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else if (a == "--state-dir") args.state_dir = v;
      else if (a == "--trace-file") args.trace_file = v;
      else if (a == "--commit") args.commit = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_seed || args.seconds < 1 || args.state_dir.empty()) return usage();

  Report report;
  int rc = 0;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s(), steal0 = host_steal_s();
  try {
    Tracer::get().enable(args.trace);
    if (args.workload == "tune-paper") {
      rc = run_tune_paper(args, report);
    } else if (args.workload == "serve-mix") {
      rc = run_serve_mix(args, report);
    } else if (args.workload == "sim-measure") {
      rc = run_sim_measure(args, report);
    } else {
      return usage();
    }
    Tracer::get().enable(false);
  } catch (const std::exception& e) {
    // A workload that cannot run to the end prints no result.
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace) {
    // Every workload reports every layer: its calls (spans) and its self
    // time as a share of the traced run's wall time (thread-seconds per
    // second, so a layer running on several threads at once can pass 1).
    // A layer the workload's load does not reach reads 0 on both.
    const double wall_s = seconds_since(t0);
    const Tracer& tracer = Tracer::get();
    const auto self_times = tracer.self_times();
    for (const char* layer : kSpanLayers) {
      const std::string prefix = std::string(layer) + ".";
      double calls = 0, self_s = 0;
      for (const auto& [name, t] : self_times) {
        if (name.rfind(prefix, 0) != 0) continue;
        calls += static_cast<double>(t.calls);
        self_s += t.self_s;
      }
      report.metric(prefix + "calls", calls, "count");
      report.metric(prefix + "self_share", self_s / wall_s, "ratio");
    }
    // The workload measured trace.overhead_share on its own calls, where
    // host noise can hide it; span_share is the recorder's own cost: spans
    // made times the measured cost of one, over the traced run's time.
    const double span_s = Tracer::span_cost_s();
    const auto spans = static_cast<double>(tracer.size());
    report.metric("trace.span_cost_us", span_s * 1e6, "us");
    report.metric("trace.spans", spans, "count");
    report.metric("trace.span_share", spans * span_s / wall_s, "ratio");
    Json self = Json::object();
    for (const auto& [name, t] : self_times) {
      Json s = Json::object();
      s.set("calls", Json(t.calls));
      s.set("total_s", Json(t.total_s));
      s.set("self_s", Json(t.self_s));
      self.set(name, std::move(s));
    }
    report.detail("span_self_times", std::move(self));
    if (!args.trace_file.empty()) tracer.write(args.trace_file);
  } else {
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ok_ratio",
                  static_cast<double>(report.attempted() - report.failed()) /
                      static_cast<double>(
                          std::max<std::int64_t>(1, report.attempted())),
                  "ratio");
  }
  report.detail("run_wall_s", Json(seconds_since(t0)));
  report.detail("run_cpu_s", Json(process_cpu_s() - cpu0));
  report.detail("host_steal_s", Json(host_steal_s() - steal0));
  report.emit(args);
  if (!report.all_ok()) {
    std::fprintf(stderr, "perfbench: %lld of %lld checked operations failed\n",
                 static_cast<long long>(report.failed()),
                 static_cast<long long>(report.attempted()));
    return 1;
  }
  return rc;
}
