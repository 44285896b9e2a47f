#pragma once

#include <map>
#include <string>
#include <vector>

#include "artemis/driver/driver.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::telemetry {

/// Schema version of the run report. Bump on any breaking change to the
/// JSON layout; trajectory tooling keys on it.
inline constexpr int kReportVersion = 4;

/// Run identification attached to the report header.
struct ReportMeta {
  std::string source;    ///< DSL path (or a symbolic name)
  std::string strategy;  ///< generator strategy name
  std::string device;    ///< device model name
  int jobs = 1;          ///< tuning parallelism the run was driven with
  std::string engine;    ///< sim engine name ("bytecode"/"native")
};

/// Structured form of one kernel configuration (the autotuner knobs).
Json config_json(const codegen::KernelConfig& cfg);

/// Assemble the versioned, machine-readable end-to-end run report: chosen
/// kernel configs with predicted times, hints fired, fusion schedule, the
/// tuner's per-candidate records and enumerated/pruned/evaluated counters
/// (from telemetry events), and per-kernel profile verdicts. Suitable for
/// BENCH_*.json-style trajectory tracking: stable key order, version
/// field first.
Json build_run_report(const ReportMeta& meta,
                      const driver::ProgramResult& result,
                      const std::vector<Event>& events,
                      const std::map<std::string, std::int64_t>& counters);

}  // namespace artemis::telemetry
