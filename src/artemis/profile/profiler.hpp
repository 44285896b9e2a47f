#pragma once

#include <string>
#include <vector>

#include "artemis/gpumodel/perf_model.hpp"

namespace artemis::profile {

/// Memory levels the profiler reasons about (Section IV).
enum class Level { Dram, Tex, Shm };
const char* level_name(Level l);

/// Roofline verdict for one level.
enum class LevelVerdict {
  BandwidthBound,  ///< OI_M well below alpha/beta_M
  ComputeBound,    ///< OI_M at or above alpha/beta_M
  Inconclusive,    ///< near the ridge; resolved by code differencing
  NoTraffic,       ///< the kernel does not touch this level
};
const char* level_verdict_name(LevelVerdict v);

/// Full profiling report for one kernel version, mirroring what ARTEMIS
/// extracts from an nvprof run plus the roofline model.
struct ProfileReport {
  gpumodel::KernelEval eval;

  double oi_dram = 0, oi_tex = 0, oi_shm = 0;
  double balance_dram = 0, balance_tex = 0, balance_shm = 0;

  LevelVerdict dram = LevelVerdict::NoTraffic;
  LevelVerdict tex = LevelVerdict::NoTraffic;
  LevelVerdict shm = LevelVerdict::NoTraffic;

  bool latency_bound = false;
  bool compute_bound = false;      ///< compute-bound at every active level
  bool register_pressure = false;  ///< spills, or register-capped occupancy
  /// Levels whose verdict was settled by code differencing rather than the
  /// plain roofline thresholds.
  std::vector<Level> differenced;

  bool bandwidth_bound_at(Level l) const {
    switch (l) {
      case Level::Dram: return dram == LevelVerdict::BandwidthBound;
      case Level::Tex: return tex == LevelVerdict::BandwidthBound;
      case Level::Shm: return shm == LevelVerdict::BandwidthBound;
    }
    return false;
  }
  bool bandwidth_bound_anywhere() const {
    return bandwidth_bound_at(Level::Dram) || bandwidth_bound_at(Level::Tex) ||
           bandwidth_bound_at(Level::Shm);
  }

  std::string summary() const;
};

/// OI below `kBandwidthMargin * balance` is clearly bandwidth-bound; OI
/// at or above `kComputeMargin * balance` clearly compute-bound; between
/// the two the profiler falls back to code differencing.
inline constexpr double kBandwidthMargin = 0.7;
inline constexpr double kComputeMargin = 1.0;
/// Code differencing declares bandwidth-bound when eliminating the
/// level's traffic improves modelled time by more than this fraction.
inline constexpr double kDifferencingThreshold = 0.08;

/// Profile one kernel plan: evaluate it on the device model (the nvprof
/// stand-in), compute per-level operational intensity, classify each level
/// via the roofline, and resolve near-ridge cases with code differencing
/// (re-time the kernel with the level's traffic confined to one block,
/// like Listing 3, and compare).
ProfileReport profile_plan(const codegen::KernelPlan& plan,
                           const gpumodel::DeviceSpec& dev,
                           const gpumodel::ModelParams& params = {});

/// Actionable guidance derived from a report (the guidelines of Section
/// IV-A). `iterative` marks time-iterated stencils; `uses_shmem` marks
/// versions that stage arrays in shared memory.
struct OptimizationHints {
  bool disable_unroll = false;
  bool disable_shmem_opts = false;
  bool apply_flop_reduction = false;
  bool try_higher_fusion = false;      ///< iterative, bw-bound at tex/dram
  bool enable_shmem = false;           ///< spatial, tex bandwidth-bound
  bool prefer_global_version = false;  ///< spatial, dram-bound with shmem
  bool enable_register_opts = false;   ///< shm bandwidth-bound
  bool generate_fission_candidates = false;  ///< register pressure
  std::vector<std::string> text;       ///< hints surfaced to the user
};

OptimizationHints derive_hints(const ProfileReport& report, bool iterative,
                               bool uses_shmem);

}  // namespace artemis::profile
