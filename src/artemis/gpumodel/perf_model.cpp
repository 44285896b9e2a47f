#include "artemis/gpumodel/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "artemis/common/check.hpp"

namespace artemis::gpumodel {

namespace {

using codegen::KernelPlan;
using codegen::Perspective;
using codegen::TilingScheme;
using codegen::UnrollStrategy;

constexpr std::int64_t kElem = 8;  // double precision

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Geometry of the plan collected once.
struct Geometry {
  std::array<std::int64_t, 3> tile = {1, 1, 1};   ///< output tile per block
  std::array<std::int64_t, 3> domain = {1, 1, 1};
  std::int64_t blocks = 1;
  std::int64_t sweep_len = 1;       ///< z extent swept per block (1 if none)
  bool streaming = false;
};

Geometry make_geometry(const KernelPlan& plan) {
  Geometry g;
  g.domain = {plan.domain.x, plan.domain.y, plan.domain.z};
  for (int a = 0; a < plan.dims; ++a) {
    g.tile[static_cast<std::size_t>(a)] = std::min(
        plan.tile_extent(a), g.domain[static_cast<std::size_t>(a)]);
  }
  const auto& cfg = plan.config;
  g.streaming = cfg.tiling != TilingScheme::Spatial3D;
  const int sweep_axis = plan.dims - 1;
  if (cfg.tiling == TilingScheme::StreamSerial) {
    g.sweep_len = g.domain[static_cast<std::size_t>(sweep_axis)];
    g.tile[static_cast<std::size_t>(sweep_axis)] = g.sweep_len;
  } else if (cfg.tiling == TilingScheme::StreamConcurrent) {
    g.sweep_len = std::min<std::int64_t>(cfg.stream_chunk,
                                         g.domain[static_cast<std::size_t>(
                                             sweep_axis)]);
    g.tile[static_cast<std::size_t>(sweep_axis)] = g.sweep_len;
  }
  g.blocks = 1;
  for (int a = 0; a < plan.dims; ++a) {
    g.blocks *= ceil_div(g.domain[static_cast<std::size_t>(a)],
                         g.tile[static_cast<std::size_t>(a)]);
  }
  return g;
}

/// Volume of the block's tile expanded by `e` per axis; the swept axis of
/// serial streaming carries no per-axis expansion cost (redundancy only in
/// the tiled dimensions, Fig. 1c), while concurrent streaming pays the
/// expansion on its chunk.
std::int64_t expanded_volume(const KernelPlan& plan, const Geometry& g,
                             const std::array<int, 3>& e) {
  std::int64_t v = 1;
  for (int a = 0; a < plan.dims; ++a) {
    const auto idx = static_cast<std::size_t>(a);
    std::int64_t ext = g.tile[idx];
    const bool is_sweep_axis = g.streaming && a == plan.dims - 1;
    if (!is_sweep_axis ||
        plan.config.tiling == TilingScheme::StreamConcurrent) {
      if (!is_sweep_axis) {
        ext += 2 * e[idx];
      }
      // Concurrent streaming pays the sweep-axis expansion once per chunk
      // for fused stages (pipeline fill), which is small; we fold it in.
      if (is_sweep_axis &&
          plan.config.tiling == TilingScheme::StreamConcurrent) {
        ext += 2 * e[idx];
      }
    }
    v *= ext;
  }
  return v;
}

/// Effective halo of array `name` per axis (0 when untracked).
std::array<std::int64_t, 3> halo_of(const KernelPlan& plan,
                                    const std::string& name) {
  std::array<std::int64_t, 3> h = {0, 0, 0};
  if (const auto it = plan.eff_halo.find(name); it != plan.eff_halo.end()) {
    for (std::size_t a = 0; a < 3; ++a) h[a] = it->second[a];
  }
  return h;
}

/// Register-level reuse factor for repeated x-offset reads under blocked
/// unrolling (Section III-A3): ux adjacent outputs share a sliding window
/// of 2rx+ux loads instead of ux*(2rx+1).
double unroll_reuse_factor(const KernelPlan& plan,
                           const ir::ArrayAccessInfo& ai) {
  if (plan.config.unroll_strategy != UnrollStrategy::Blocked) return 1.0;
  const int ux = plan.config.unroll[0];
  if (ux <= 1) return 1.0;
  // Radius along the innermost iterator (axis x).
  const int rx = ai.radius[static_cast<std::size_t>(plan.dims - 1)];
  if (rx == 0 || ai.read_offsets.size() <= 1) return 1.0;
  const double w = 2.0 * rx + 1.0;
  return (2.0 * rx + ux) / (ux * w);
}

/// Number of elements of `name` loaded (from the global space) per block
/// over the block's whole sweep, assuming the array is staged (each
/// element fetched once).
std::int64_t staged_loads_per_block(const KernelPlan& plan, const Geometry& g,
                                    const ir::ArrayAccessInfo& ai,
                                    const std::array<std::int64_t, 3>& halo) {
  if (ai.dims < plan.dims) return g.tile[0] + 2 * halo[0];
  std::int64_t v = 1;
  for (int a = 0; a < plan.dims; ++a) {
    const auto idx = static_cast<std::size_t>(a);
    std::int64_t h = halo[idx];
    if (g.streaming && a == plan.dims - 1) {
      // Streaming pipelines fused stages along the sweep: only the
      // array's own radius of extra planes is ever loaded.
      h = ai.radius[0];
    }
    v *= g.tile[idx] + 2 * h;
  }
  return v;
}

double ramp(double concurrency, double saturation) {
  return std::clamp(concurrency / saturation, 0.02, 1.0);
}

}  // namespace

const char* bound_name(Bound b) {
  switch (b) {
    case Bound::Dram: return "dram-bandwidth";
    case Bound::Tex: return "tex-bandwidth";
    case Bound::Shm: return "shm-bandwidth";
    case Bound::Compute: return "compute";
    case Bound::Latency: return "latency";
  }
  return "?";
}

KernelEval evaluate(const KernelPlan& plan, const DeviceSpec& dev,
                    const ModelParams& params) {
  KernelEval ev;
  const Geometry g = make_geometry(plan);
  const auto& cfg = plan.config;

  // ---- threads per block under the chosen perspective ---------------------
  const std::int64_t hx = plan.radius[0];
  const std::int64_t hy = plan.dims >= 2 ? plan.radius[1] : 0;
  bool any_shared = false;
  for (const auto& [name, pl] : plan.placement) {
    any_shared |= pl.space == ir::MemSpace::Shared;
  }
  std::int64_t threads_pb = cfg.threads_per_block();
  if (cfg.tiling == TilingScheme::StreamConcurrent) {
    threads_pb = static_cast<std::int64_t>(cfg.block[0]) * cfg.block[1];
  }
  if (any_shared) {
    switch (cfg.perspective) {
      case Perspective::Output:
        break;
      case Perspective::Input:
        threads_pb = (cfg.block[0] + 2 * hx) *
                     (plan.dims >= 2 ? (cfg.block[1] + 2 * hy) : 1) *
                     (g.streaming ? 1 : cfg.block[2]);
        break;
      case Perspective::Mixed:
        threads_pb = (cfg.block[0] + 2 * hx) *
                     (plan.dims >= 2 ? cfg.block[1] : 1) *
                     (g.streaming ? 1 : cfg.block[2]);
        break;
    }
  }
  if (threads_pb > dev.max_threads_per_block) {
    ev.valid = false;
    // Built without a stream: the tuner prices thousands of such launches.
    ev.invalid_reason = "perspective-expanded block of " +
                        std::to_string(threads_pb) +
                        " threads exceeds device limit";
    ev.time_s = std::numeric_limits<double>::infinity();
    return ev;
  }

  // ---- registers and occupancy --------------------------------------------
  ev.regs = estimate_registers(plan);
  const int regs_alloc = std::min(ev.regs.total, cfg.max_registers);
  const int spilled = ev.regs.spilled(cfg.max_registers);

  KernelResources res;
  res.threads_per_block = static_cast<int>(threads_pb);
  res.regs_per_thread = regs_alloc;
  res.shmem_per_block = plan.shmem_bytes_per_block;
  ev.occupancy = compute_occupancy(dev, res);
  if (ev.occupancy.fraction <= 0.0) {
    ev.valid = false;
    ev.invalid_reason = std::string("launch cannot run: ") +
                        limiter_name(ev.occupancy.limiter);
    ev.time_s = std::numeric_limits<double>::infinity();
    return ev;
  }

  // ---- FLOPs (with overlapped-tiling recomputation) ------------------------
  const std::int64_t points_total =
      plan.domain.x * plan.domain.y * plan.domain.z;
  std::int64_t flops_per_point_useful = 0;
  std::int64_t computed_points = 0;  // incl. recompute, over all stages
  {
    std::int64_t flops = 0;
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      const std::int64_t region = expanded_volume(plan, g, plan.stage_expand[s]);
      flops += plan.stage_flops[s] * region;
      computed_points += region;
      flops_per_point_useful += plan.stage_flops[s];
    }
    ev.counters.flops = flops * g.blocks;
    computed_points *= g.blocks;
  }
  ev.useful_flops = flops_per_point_useful * points_total;
  // Folding removes recomputed multiplies at the source level.
  if (!plan.fold_groups.empty()) {
    // Savings are per point of the stage reading the folded arrays; the
    // plan builder guarantees groups only form among co-indexed reads.
    std::int64_t savings_pp = 0;
    for (const auto& grp : plan.fold_groups) {
      savings_pp += static_cast<std::int64_t>(grp.size()) - 1;
    }
    ev.counters.flops -= savings_pp * computed_points / 2;
    ev.counters.flops = std::max<std::int64_t>(ev.counters.flops, 0);
  }

  // ---- memory traffic -------------------------------------------------------
  const double halo_hit = g.streaming ? params.stream_halo_l2_hit
                                      : params.spatial_halo_l2_hit;
  const double recompute_ratio =
      points_total > 0 ? static_cast<double>(computed_points) /
                             (static_cast<double>(points_total) *
                              std::max<std::size_t>(plan.stages.size(), 1))
                       : 1.0;

  // Working set that must survive in L2 between consecutive sweep steps of
  // streaming blocks that read straight from global memory.
  double stream_global_ws = 0.0;
  const std::int64_t active_blocks_possible =
      static_cast<std::int64_t>(dev.num_sms) *
      std::max(1, ev.occupancy.active_blocks_per_sm);
  const std::int64_t active_blocks = std::min(g.blocks, active_blocks_possible);
  if (g.streaming) {
    for (const auto& [name, pl] : plan.placement) {
      if (pl.space != ir::MemSpace::Global) continue;
      const auto it = plan.info.arrays.find(name);
      if (it == plan.info.arrays.end() || !it->second.read) continue;
      if (it->second.dims < plan.dims) continue;  // low-dim arrays are tiny
      const auto h = halo_of(plan, name);
      const std::int64_t rz = h[static_cast<std::size_t>(plan.dims - 1)];
      const std::int64_t plane =
          (g.tile[0] + 2 * h[0]) *
          (plan.dims >= 3 ? (g.tile[1] + 2 * h[1]) : 1) * kElem;
      stream_global_ws += static_cast<double>(active_blocks) *
                          static_cast<double>(plane) *
                          static_cast<double>(2 * rz + 1);
    }
  }
  const double stream_keep =
      stream_global_ws > 0.0
          ? std::clamp(static_cast<double>(dev.l2_bytes) / stream_global_ws,
                       0.0, 0.98)
          : 1.0;

  std::set<int> fold_counted;
  for (const auto& [name, pl] : plan.placement) {
    const auto ait = plan.info.arrays.find(name);
    ARTEMIS_CHECK(ait != plan.info.arrays.end());
    const auto& ai = ait->second;
    const auto halo = halo_of(plan, name);

    std::int64_t unique_elems = 1;
    {
      // Unique footprint: the declared array volume, bounded by what the
      // kernel touches.
      if (ai.dims == 1) {
        unique_elems = g.domain[0];
      } else {
        for (int a = 0; a < ai.dims; ++a) {
          unique_elems *= g.domain[static_cast<std::size_t>(a)];
        }
      }
    }
    const std::int64_t unique_bytes = unique_elems * kElem;
    const auto n_offsets = static_cast<std::int64_t>(ai.read_offsets.size());
    const double reuse = unroll_reuse_factor(plan, ai);
    const bool internal =
        std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                  name) != plan.internal_arrays.end();

    // Perspective-dependent coalescing waste on staged halo loads.
    double persp_waste = 1.0;
    if (any_shared && pl.space == ir::MemSpace::Shared) {
      if (cfg.perspective == Perspective::Output) {
        persp_waste = params.output_persp_halo_waste;
      } else if (cfg.perspective == Perspective::Mixed) {
        persp_waste = params.mixed_persp_halo_waste;
      }
    }

    switch (pl.space) {
      case ir::MemSpace::Shared:
      case ir::MemSpace::Reg: {
        if (internal) {
          // Produced and consumed inside the kernel: no global read
          // traffic; fills and reads go through shared memory below. If
          // the array is also a program output it still streams out once.
          if (std::find(plan.materialized_internals.begin(),
                        plan.materialized_internals.end(),
                        name) != plan.materialized_internals.end()) {
            ev.counters.dram_write_bytes += unique_bytes;
          }
          if (pl.space == ir::MemSpace::Shared) {
            const double region =
                static_cast<double>(computed_points) /
                std::max<std::size_t>(plan.stages.size(), 1);
            ev.counters.shm_bytes += static_cast<std::int64_t>(
                region * kElem);  // fill by producer stage
            ev.counters.shm_bytes += static_cast<std::int64_t>(
                region * static_cast<double>(std::max<std::int64_t>(
                             n_offsets, 1)) *
                reuse * kElem);
          }
          break;
        }
        if (ai.read && ai.dims < plan.dims) {
          // Low-dimensional coefficient arrays: warp-broadcast loads, one
          // line per block, resident in L2 thereafter.
          const std::int64_t line =
              (g.tile[0] + 2 * halo[0]) * g.blocks * kElem;
          ev.counters.tex_bytes += line;
          ev.counters.dram_read_bytes += unique_bytes;
          if (pl.space == ir::MemSpace::Shared) {
            // Naive generators allocate tile-shaped buffers even for 1D
            // arrays (Section II-B1); the fill and the per-point reads go
            // through shared memory.
            const std::int64_t fill =
                pl.user_pinned
                    ? line
                    : (g.tile[0] + 2 * halo[0]) *
                          (plan.dims >= 2 ? (g.tile[1] + 2 * halo[1]) : 1) *
                          g.blocks * kElem;
            const auto reads = static_cast<std::int64_t>(
                static_cast<double>(points_total) * recompute_ratio *
                static_cast<double>(std::max<std::int64_t>(n_offsets, 1)) *
                kElem);
            ev.counters.shm_bytes += fill + reads;
          }
          if (ai.written) ev.counters.dram_write_bytes += unique_bytes;
          break;
        }
        if (ai.read) {
          const std::int64_t per_block =
              staged_loads_per_block(plan, g, ai, halo);
          const std::int64_t total_loaded = per_block * g.blocks * kElem;
          const std::int64_t redundant =
              std::max<std::int64_t>(total_loaded - unique_bytes, 0);
          const double halo_frac =
              total_loaded > 0
                  ? static_cast<double>(redundant) / total_loaded
                  : 0.0;
          ev.counters.tex_bytes += static_cast<std::int64_t>(
              total_loaded * (1.0 + (persp_waste - 1.0) * halo_frac));
          ev.counters.dram_read_bytes += static_cast<std::int64_t>(
              std::min(unique_bytes, total_loaded) +
              redundant * (1.0 - halo_hit));
          if (pl.space == ir::MemSpace::Shared) {
            std::int64_t fill = total_loaded;
            std::int64_t reads = static_cast<std::int64_t>(
                static_cast<double>(points_total) * recompute_ratio *
                static_cast<double>(n_offsets) * reuse * kElem);
            if (pl.fold_group >= 0) {
              // Folded buffers are filled once per group; count the fill
              // and reads only for the first member encountered.
              if (fold_counted.count(pl.fold_group)) {
                reads = 0;
                fill = 0;
              } else {
                fold_counted.insert(pl.fold_group);
              }
            }
            ev.counters.shm_bytes += fill + reads;
          }
        }
        if (ai.written) {
          ev.counters.dram_write_bytes += unique_bytes;
        }
        break;
      }
      case ir::MemSpace::Global: {
        if (internal) {
          // Fused stages exchanging data through global memory: producer
          // writes and consumer reads the expanded region.
          const double region = static_cast<double>(computed_points) /
                                std::max<std::size_t>(plan.stages.size(), 1);
          const auto bytes = static_cast<std::int64_t>(region * kElem);
          ev.counters.dram_write_bytes += bytes;
          ev.counters.tex_bytes += static_cast<std::int64_t>(
              region * static_cast<double>(std::max<std::int64_t>(n_offsets,
                                                                  1)) *
              reuse * kElem);
          ev.counters.dram_read_bytes += bytes / 2;  // partial L2 reuse
          break;
        }
        if (ai.read && ai.dims < plan.dims) {
          // Broadcast reads of low-dimensional arrays: one line of tex
          // traffic per block, resident in L2.
          ev.counters.tex_bytes +=
              (g.tile[0] + 2 * halo[0]) * g.blocks * kElem *
              std::max<std::int64_t>(n_offsets, 1);
          ev.counters.dram_read_bytes += unique_bytes;
          if (ai.written) ev.counters.dram_write_bytes += unique_bytes;
          break;
        }
        if (ai.read) {
          // Every (CSE'd) offset access is a tex transaction.
          ev.counters.tex_bytes += static_cast<std::int64_t>(
              static_cast<double>(points_total) * recompute_ratio *
              static_cast<double>(std::max<std::int64_t>(n_offsets, 1)) *
              reuse * kElem);
          if (false) {
            // (low-dimensional arrays handled above)
          } else {
            const std::int64_t per_block =
                staged_loads_per_block(plan, g, ai, halo);
            const std::int64_t total_touched = per_block * g.blocks * kElem;
            const std::int64_t redundant =
                std::max<std::int64_t>(total_touched - unique_bytes, 0);
            double dram = static_cast<double>(
                              std::min(unique_bytes, total_touched)) +
                          static_cast<double>(redundant) * (1.0 - halo_hit);
            if (g.streaming) {
              // Plane revisits along the sweep miss when the inter-step
              // working set exceeds L2 (the global-stream effect of
              // Section VIII-F).
              const std::int64_t rz =
                  halo[static_cast<std::size_t>(plan.dims - 1)];
              dram += static_cast<double>(unique_bytes) * 2.0 *
                      static_cast<double>(rz) * (1.0 - stream_keep);
            }
            ev.counters.dram_read_bytes += static_cast<std::int64_t>(dram);
          }
        }
        if (ai.written) {
          ev.counters.dram_write_bytes += unique_bytes;
          if (ai.read && ai.written) {
            // Read-modify-write arrays (+=) are also read once.
          }
        }
        break;
      }
      case ir::MemSpace::Auto:
        ARTEMIS_CHECK_MSG(false, "placement left unresolved for '" << name
                                                                   << "'");
    }
  }

  // ---- spills ---------------------------------------------------------------
  if (spilled > 0) {
    ev.counters.spill_bytes = static_cast<std::int64_t>(
        static_cast<double>(computed_points) * spilled * kElem *
        params.spill_sector_waste);
    ev.counters.tex_bytes += ev.counters.spill_bytes * 2;  // st + ld
    ev.counters.dram_read_bytes += static_cast<std::int64_t>(
        ev.counters.spill_bytes * params.spill_dram_fraction);
    ev.counters.dram_write_bytes += static_cast<std::int64_t>(
        ev.counters.spill_bytes * params.spill_dram_fraction);
  }
  ev.counters.num_blocks = g.blocks;

  // ---- timing ----------------------------------------------------------------
  const double occ = ev.occupancy.fraction;
  const std::int64_t uprod = cfg.unroll_product();
  const double ilp_per_u =
      cfg.unroll_strategy == UnrollStrategy::Blocked
          ? params.ilp_per_unroll_blocked
          : params.ilp_per_unroll_cyclic;
  const double ilp =
      std::min(4.0, 1.0 + ilp_per_u * static_cast<double>(uprod - 1));

  const double waves = std::ceil(static_cast<double>(g.blocks) /
                                 static_cast<double>(active_blocks_possible));
  const double tail_util =
      std::clamp(static_cast<double>(g.blocks) /
                     (waves * static_cast<double>(active_blocks_possible)),
                 0.05, 1.0);

  const double mem_conc = occ * (1.0 + 0.15 * (ilp - 1.0));
  const double comp_conc = occ * ilp;

  ev.t_dram = static_cast<double>(ev.counters.dram_bytes()) /
              (dev.dram_bytes_per_s * ramp(mem_conc, params.dram_sat_occ) *
               tail_util);
  ev.t_tex = static_cast<double>(ev.counters.tex_bytes) /
             (dev.tex_bytes_per_s * ramp(mem_conc, params.tex_sat_occ) *
              tail_util);
  ev.t_shm = static_cast<double>(ev.counters.shm_bytes) /
             (dev.shm_bytes_per_s * ramp(mem_conc, params.shm_sat_occ) *
              tail_util);
  ev.t_compute =
      static_cast<double>(ev.counters.flops) /
      (dev.peak_dp_flops * ramp(comp_conc, params.compute_sat_conc) *
       tail_util);
  if (spilled > 0) {
    // Dependent local-memory ld/st chains stall the issue pipeline.
    ev.t_compute *= 1.0 + params.spill_compute_drag * spilled;
  }

  double overlap = params.overlap_spatial;
  if (g.streaming) {
    overlap = cfg.prefetch ? params.overlap_stream_pf
                           : params.overlap_stream_nopf;
  }
  const double t_mem = std::max({ev.t_dram, ev.t_tex, ev.t_shm});
  ev.time_s = std::max(t_mem, ev.t_compute) +
              (1.0 - overlap) * std::min(t_mem, ev.t_compute);

  // ---- bottleneck verdict ------------------------------------------------
  struct Cand {
    double t;
    Bound b;
    double eff;
  };
  const Cand cands[] = {
      {ev.t_dram, Bound::Dram, ramp(mem_conc, params.dram_sat_occ)},
      {ev.t_tex, Bound::Tex, ramp(mem_conc, params.tex_sat_occ)},
      {ev.t_shm, Bound::Shm, ramp(mem_conc, params.shm_sat_occ)},
      {ev.t_compute, Bound::Compute, ramp(comp_conc, params.compute_sat_conc)},
  };
  const Cand* top = &cands[0];
  for (const auto& c : cands) {
    if (c.t > top->t) top = &c;
  }
  ev.bound = top->eff < 0.7 ? Bound::Latency : top->b;
  return ev;
}

}  // namespace artemis::gpumodel
