#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artemis/codegen/plan.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/executor.hpp"

namespace artemis::metrics {

/// --- measured execution metrics ---------------------------------------------
///
/// The analytic gpumodel predicts traffic from plan geometry; this module
/// measures it. execute_plan's counting mode (sim::PlanTrace) records the
/// per-stage global line streams and interior/rim counters; measure_plan
/// replays those streams through gpumodel's set-associative CacheSim to
/// turn them into working-set sizes, per-level byte traffic, redundant-load
/// fractions and arithmetic intensity — the observed side of the
/// model-vs-measured comparator (compare.hpp).

/// Measured memory/compute metrics for one stage of a plan (or the plan
/// aggregate). All byte counts are for one execution over the plan domain.
struct StageMetrics {
  std::string name;

  // Point counts, split by block class (interior = guard-free fast path,
  // rim = boundary points with full checks). Computed includes
  // overlapped-tiling recompute.
  std::int64_t interior_points = 0;
  std::int64_t rim_points = 0;
  std::int64_t skipped_points = 0;

  // FLOPs actually executed (flops_per_point x computed points; the same
  // convention as ir::flop_count, so directly comparable to the model).
  std::int64_t flops = 0;
  std::int64_t interior_flops = 0;
  std::int64_t rim_flops = 0;

  // Element-granular access counts.
  std::int64_t global_read_elems = 0;
  std::int64_t global_write_elems = 0;
  std::int64_t scratch_read_elems = 0;
  std::int64_t scratch_write_elems = 0;

  // Line-granular global traffic (post intra-warp coalescing).
  std::int64_t read_line_requests = 0;
  std::int64_t write_line_requests = 0;
  std::int64_t unique_read_lines = 0;
  std::int64_t unique_write_lines = 0;
  std::int64_t unique_lines = 0;  ///< union of read and write lines

  /// All global-space load transactions (hits + misses), the measured
  /// analogue of the model's tex_bytes.
  std::int64_t tex_bytes = 0;
  /// L2 read-miss fill traffic from the cache replay.
  std::int64_t dram_read_bytes = 0;
  /// Dirty-line write-back traffic: unique written lines x line size.
  std::int64_t dram_write_bytes = 0;
  /// Shared-memory stand-in traffic: scratch element accesses x 8.
  std::int64_t shm_bytes = 0;
  /// Unique lines touched x line size (the stage's global footprint).
  std::int64_t working_set_bytes = 0;

  double l2_hit_rate = 0;
  /// Fraction of line requests whose line had already been loaded:
  /// 1 - unique_read_lines / read_line_requests (0 when no reads).
  double redundant_load_fraction = 0;

  std::int64_t computed_points() const { return interior_points + rim_points; }
  std::int64_t dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
  double oi_dram() const {
    return dram_bytes() > 0 ? static_cast<double>(flops) / dram_bytes() : 0.0;
  }
  double oi_tex() const {
    return tex_bytes > 0 ? static_cast<double>(flops) / tex_bytes : 0.0;
  }
};

/// Measured per-array footprint over the whole plan execution.
struct ArrayMetrics {
  std::string name;
  std::int64_t working_set_bytes = 0;
  std::int64_t read_line_requests = 0;
  std::int64_t write_line_requests = 0;
};

/// Measured metrics for one full plan execution.
struct PlanMetrics {
  int line_bytes = 32;
  std::int64_t l2_capacity_bytes = 0;  ///< the replayed cache's capacity
  std::vector<StageMetrics> stages;    ///< one per plan stage
  /// Plan aggregate: element counters and FLOPs summed, the cache replayed
  /// over the concatenated stage streams (plus materialized write-backs),
  /// uniqueness over the union of all lines.
  StageMetrics totals;
  std::vector<ArrayMetrics> arrays;
  sim::ExecCounters exec;  ///< raw executor counters of the measured run
};

/// Execute `plan` over `gs` in counting mode and derive measured metrics.
/// Counting always runs on the strict native engine, whose line streams,
/// counters and grids are bit-identical to the bytecode engine's (rim
/// points and stages the native lowering refuses run on bytecode), so the
/// grids end up bit-identical to a plain strict execute_plan. `base` seeds
/// the execution options (jobs); its engine and fast-math flag are
/// overridden. On perfbench's sim-measure kernels a call costs 30-87 ms
/// on a 4-vCPU host, split roughly evenly between the native counting
/// run and the L2 replay (traced
/// `metrics.measure_ms`; docs/PERFORMANCE.md, "Measurement cost").
PlanMetrics measure_plan(const codegen::KernelPlan& plan, sim::GridSet& gs,
                         const gpumodel::DeviceSpec& dev,
                         const sim::ExecOptions& base = {});

}  // namespace artemis::metrics
