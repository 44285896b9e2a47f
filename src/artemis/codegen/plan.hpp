#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "artemis/common/grid.hpp"
#include "artemis/ir/analysis.hpp"

namespace artemis::codegen {

/// How the output domain is tiled across thread blocks (Section III).
enum class TilingScheme {
  Spatial3D,         ///< tile every dimension; one thread per output point
  StreamSerial,      ///< tile all-but-one dimension; block sweeps the rest
  StreamConcurrent,  ///< overlap-tile every dimension; block sweeps one tile
};

/// Thread block load/compute adjustment (Section III-B3).
enum class Perspective {
  Output,  ///< block = output tile; boundary threads load extra halo
  Input,   ///< block = input tile (halo included); halo threads idle later
  Mixed,   ///< by x (bx + 2k): full warps in x, no idle rows in y
};

/// Work distribution for unrolled threads (Section III-A3).
enum class UnrollStrategy {
  Cyclic,   ///< lane i computes points m+i, m+32+i, ...
  Blocked,  ///< lane i computes points m+u*i .. m+u*i+u-1 (register reuse)
};

const char* tiling_name(TilingScheme t);
const char* perspective_name(Perspective p);
const char* unroll_strategy_name(UnrollStrategy u);

/// The tunable knobs explored by the autotuner. Axis convention throughout
/// planning: index 0 = x (innermost / fastest-varying iterator),
/// 1 = y, 2 = z (outermost). A 2D program uses axes {0,1}; 1D uses {0}.
struct KernelConfig {
  std::array<int, 3> block = {32, 4, 4};   ///< threads per axis
  std::array<int, 3> unroll = {1, 1, 1};   ///< per-axis unroll factors
  TilingScheme tiling = TilingScheme::Spatial3D;
  int stream_axis = 2;                     ///< swept axis when streaming
  Perspective perspective = Perspective::Output;
  UnrollStrategy unroll_strategy = UnrollStrategy::Blocked;
  /// StreamConcurrent only: length of the swept chunk along the stream
  /// axis owned by one block (the z-tile of concurrent streaming).
  int stream_chunk = 64;
  bool prefetch = false;       ///< streaming prefetch registers (III-A4)
  bool retime = false;         ///< request decomposition + retiming (III-B2)
  bool fold = false;           ///< request storage/computation folding (III-B4)
  int max_registers = 255;     ///< -maxrregcount compiler budget
  int time_tile = 1;           ///< fusion degree for iterative stencils
  std::optional<double> target_occupancy;  ///< resource rationing (II-B2)

  std::int64_t threads_per_block() const {
    return static_cast<std::int64_t>(block[0]) * block[1] * block[2];
  }
  std::int64_t unroll_product() const {
    return static_cast<std::int64_t>(unroll[0]) * unroll[1] * unroll[2];
  }
  std::string to_string() const;
};

/// The per-point terms of the register model (gpumodel::RegisterEstimate),
/// in registers per thread. They depend only on the statement lists, so
/// the plan builder derives them once per stage list
/// (gpumodel::point_registers) and every plan carries them.
struct PointRegisters {
  int locals = 0;      ///< live scalar temporaries
  int operands = 0;    ///< operand registers for the widest statement
  int scheduling = 0;  ///< ILP-window pressure (grows with FLOPs)
};

/// Residency of one array inside the generated kernel.
struct Placement {
  ir::MemSpace space = ir::MemSpace::Global;
  int fold_group = -1;  ///< >= 0: member of a folded buffer group
  bool user_pinned = false;  ///< came from #assign (resource mapper must obey)
};

/// A fully-resolved GPU kernel: one or more fused stencil stages plus every
/// decision needed to emit CUDA and to evaluate performance. Produced by
/// PlanBuilder, consumed by the CUDA emitter, the performance model, and
/// the functional executor.
struct KernelPlan {
  std::string name;
  std::vector<ir::BoundStencil> stages;  ///< in dependence order
  ir::StencilInfo info;                  ///< merged analysis over stages
  KernelConfig config;

  Extents domain;                  ///< full output domain (z, y, x)
  int dims = 3;                    ///< spatial dimensionality (1..3)
  std::array<int, 3> radius = {0, 0, 0};  ///< halo radius per axis (x,y,z)

  std::map<std::string, Placement> placement;  ///< resolved residency
  std::vector<std::vector<std::string>> fold_groups;

  bool retimed = false;   ///< retiming was legal and applied
  int time_tile = 1;      ///< applied fusion degree (== config.time_tile)

  /// Per-stage FLOPs per computed point.
  std::vector<std::int64_t> stage_flops;
  /// Per-stage read radius, per axis (x,y,z).
  std::vector<std::array<int, 3>> stage_radius;
  /// Per-stage overlapped-tiling expansion, per axis: how far beyond the
  /// output tile this stage must compute so that all later stages can
  /// consume it (sum of downstream radii). Zero for the final stage.
  std::vector<std::array<int, 3>> stage_expand;
  /// Per-array effective halo, per axis: the distance beyond the output
  /// tile from which the array is read, including fused recompute
  /// expansion. Drives buffer sizing and redundant-load counts.
  std::map<std::string, std::array<int, 3>> eff_halo;

  /// Names of arrays that are stage outputs consumed by later stages in
  /// the same plan (kept in shared memory / registers between stages).
  std::vector<std::string> internal_arrays;
  /// Internal arrays that are also program outputs (copyout): their owned
  /// tile must additionally be written back to global memory.
  std::vector<std::string> materialized_internals;

  /// Shared memory consumed per block, derived by the resource mapper.
  std::int64_t shmem_bytes_per_block = 0;

  /// Register terms of the stage statements, read by
  /// gpumodel::estimate_registers.
  PointRegisters point_registers;

  /// Iterator names of the source program (outermost first), for emission.
  std::vector<std::string> iterators;

  /// Number of thread blocks launched over the whole domain.
  std::int64_t num_blocks() const;
  /// Output tile extent per block along an axis (block * unroll).
  std::int64_t tile_extent(int axis) const;
  /// Domain extent along an axis.
  std::int64_t domain_extent(int axis) const {
    switch (axis) {
      case 0: return domain.x;
      case 1: return domain.y;
      default: return domain.z;
    }
  }
};

}  // namespace artemis::codegen
