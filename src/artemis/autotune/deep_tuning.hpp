#pragma once

#include <functional>

#include "artemis/autotune/search.hpp"
#include "artemis/transform/fusion.hpp"

namespace artemis::autotune {

/// One tuned time-tiled version (x x 1) of an iterative stencil.
struct DeepTuneEntry {
  int time_tile = 1;                 ///< x
  TuneResult tuned;                  ///< tuned launch parameters
  profile::ProfileReport report;     ///< profiling of the best version
  double time_s = 0;                 ///< best modelled time per invocation
  double tflops = 0;                 ///< useful TFLOPS of the version
};

/// Result of deep tuning (Section VI-A): versions (1x1) .. (kx1), tuned
/// and profiled in order; exploration stops one version past the first
/// that is no longer bandwidth-bound at DRAM, texture or shared memory
/// (fusing further cannot help), or at the first infeasible version.
struct DeepTuneResult {
  std::vector<DeepTuneEntry> entries;
  /// The time tile size after which fusion stops paying off (the "cusp"
  /// circled in Fig. 4): index of the fastest per-step version.
  int tipping_point = 1;
};

struct DeepTuneOptions {
  int max_time_tile = 8;
  TuneOptions tune;
};

/// Tunes and profiles the (x x 1) fused version for x = its argument.
/// Throws PlanError when no configuration of that version is feasible.
using TileTuner = std::function<DeepTuneEntry(int time_tile)>;

/// The deep-tuning loop (Section VI-A): for x = 1 .. max_time_tile, tune
/// version x and continue while its profile is bandwidth-bound at some
/// memory level, recording one version past the first that is not (the
/// cusp of the deep-tuning plot). A PlanError at x ends the loop with
/// versions 1 .. x-1. The tipping point is the fastest version per step
/// (time_s / x).
DeepTuneResult deep_tune(int max_time_tile, const TileTuner& tune_tile);

/// Deep-tune an iterate block with the default tile tuner: the (x x 1)
/// kernel from transform::time_tile_iterate, seeded with serial streaming,
/// shared memory on, autotuned with `opts.tune` and its winner profiled.
DeepTuneResult deep_tune(const ir::Program& prog,
                         const ir::Step& iterate_step,
                         const gpumodel::DeviceSpec& dev,
                         const gpumodel::ModelParams& params = {},
                         const DeepTuneOptions& opts = {});

/// Optimal fusion schedule for T time iterations given the deep-tuned
/// versions: the dynamic program opt(T) = min_x f(x) + opt(T - x) over
/// recorded per-invocation times f(x). Returns the tile sizes whose sum
/// is T (e.g. {4,4,4,1} for T=13).
std::vector<int> fusion_schedule(const DeepTuneResult& result, int T);

/// Modelled execution time of a schedule (sum of f(x) over tiles).
double schedule_time(const DeepTuneResult& result,
                     const std::vector<int>& schedule);

}  // namespace artemis::autotune
