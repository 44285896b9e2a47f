#include "artemis/codegen/plan_builder.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "artemis/common/str.hpp"
#include "artemis/gpumodel/occupancy.hpp"
#include "artemis/gpumodel/registers.hpp"
#include "artemis/transform/fold.hpp"
#include "artemis/transform/retime.hpp"

namespace artemis::codegen {

namespace {

/// Count the syntactic accesses (reads + writes) to each array across all
/// stages; the rationing loop demotes the least-accessed buffer first
/// (Section II-B2: "choose a shared memory buffer with minimum number of
/// accesses, and demote its storage to global memory").
std::map<std::string, std::int64_t> count_accesses(
    const std::vector<ir::BoundStencil>& stages) {
  std::map<std::string, std::int64_t> counts;
  for (const auto& stage : stages) {
    for (const auto& st : stage.stmts) {
      if (!st.declares_local) ++counts[st.lhs_name];
      ir::visit(*st.rhs, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::ArrayRef) ++counts[e.name];
      });
    }
  }
  return counts;
}

/// Per-block shared memory bytes for `placement` of the plan's arrays
/// under `cfg`.
std::int64_t compute_shmem_bytes(
    const KernelPlan& plan, const KernelConfig& cfg, bool retimed,
    const std::map<std::string, Placement>& placement) {
  const auto tile_extent = [&](int axis) -> std::int64_t {
    return static_cast<std::int64_t>(
               cfg.block[static_cast<std::size_t>(axis)]) *
           cfg.unroll[static_cast<std::size_t>(axis)];
  };
  const std::int64_t tx = tile_extent(0);
  const std::int64_t ty = plan.dims >= 2 ? tile_extent(1) : 1;
  const std::int64_t tz = plan.dims >= 3 ? tile_extent(2) : 1;
  const bool streaming = cfg.tiling != TilingScheme::Spatial3D;

  std::set<int> counted_groups;
  std::int64_t bytes = 0;
  for (const auto& [name, pl] : placement) {
    if (pl.space != ir::MemSpace::Shared) continue;
    if (pl.fold_group >= 0) {
      if (counted_groups.count(pl.fold_group)) continue;
      counted_groups.insert(pl.fold_group);
    }
    const auto it = plan.info.arrays.find(name);
    ARTEMIS_CHECK(it != plan.info.arrays.end());
    const auto& ai = it->second;
    // Effective halo (array radius + fused recompute expansion), per axis.
    std::array<std::int64_t, 3> r = {0, 0, 0};
    if (const auto eh = plan.eff_halo.find(name); eh != plan.eff_halo.end()) {
      for (std::size_t a = 0; a < 3; ++a) r[a] = eh->second[a];
    }
    const bool is_internal =
        std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                  name) != plan.internal_arrays.end();
    std::int64_t buf;
    if (ai.dims < plan.dims && pl.user_pinned) {
      // An expert pinning a low-dimensional array to shared memory gets a
      // precisely-sized line buffer.
      buf = tx + 2 * r[0];
    } else if (ai.dims < plan.dims) {
      // Naive default (Section II-B1): the generator allocates a
      // tile-shaped buffer per input array without specializing
      // low-dimensional arrays, wasting capacity -- exactly the behavior
      // user-guided resource assignment exists to override.
      buf = (tx + 2 * r[0]) * (plan.dims >= 2 ? (ty + 2 * r[1]) : 1);
      if (!streaming && plan.dims >= 3) buf *= tz + 2 * r[2];
    } else if (streaming && plan.dims == 3 && cfg.stream_axis == 2) {
      // One plane in shared memory; the +/- stream planes live in
      // per-thread registers (Listing 2), unless the array is internal to
      // a fused DAG, in which case all 2r+1 planes must be shared so that
      // neighboring threads can read produced values. Streaming pipelines
      // fused stages along the sweep (Fig. 1c), so the plane count uses
      // the array's OWN sweep radius, not the accumulated halo.
      const std::int64_t plane = (tx + 2 * r[0]) * (ty + 2 * r[1]);
      const std::int64_t own_rz = ai.radius[0];  // iterator 0 = z
      std::int64_t planes = 1;
      if (is_internal) planes = 2 * own_rz + 1;
      if (retimed && !is_internal) planes = 1;
      buf = plane * planes;
    } else {
      buf = (tx + 2 * r[0]) * (ty + 2 * r[1]) * (tz + 2 * r[2]);
    }
    bytes += buf * 8;
  }
  return bytes;
}

}  // namespace

KernelConfig config_from_pragma(const ir::Program& prog,
                                const ir::PragmaInfo& pragma, int dims) {
  KernelConfig cfg;
  // Paper baseline defaults (Section VIII-G): (x=32,y=16) with streaming
  // for 3D iterative stencils, (x=16,y=4,z=4) for non-streaming versions.
  if (pragma.stream_iter) {
    cfg.tiling = TilingScheme::StreamSerial;
    const int iter_idx = prog.iterator_index(*pragma.stream_iter);
    ARTEMIS_CHECK_MSG(iter_idx >= 0, "pragma streams unknown iterator");
    cfg.stream_axis = dims - 1 - iter_idx;
    cfg.block = {32, 16, 1};
  } else if (dims == 3) {
    cfg.tiling = TilingScheme::Spatial3D;
    cfg.block = {16, 4, 4};
  } else {
    cfg.block = {32, dims >= 2 ? 8 : 1, 1};
  }
  if (!pragma.block.empty()) {
    cfg.block = {1, 1, 1};
    for (std::size_t i = 0; i < pragma.block.size() && i < 3; ++i) {
      cfg.block[i] = static_cast<int>(pragma.block[i]);
    }
  }
  for (const auto& [iter, factor] : pragma.unroll) {
    const int iter_idx = prog.iterator_index(iter);
    ARTEMIS_CHECK_MSG(iter_idx >= 0, "pragma unrolls unknown iterator");
    cfg.unroll[static_cast<std::size_t>(dims - 1 - iter_idx)] =
        static_cast<int>(factor);
  }
  cfg.target_occupancy = pragma.occupancy;
  return cfg;
}

namespace {

/// Fill in every config-independent field of `plan` from the stage list
/// (everything but `stages` itself): merged analysis, per-stage geometry,
/// the output domain, internal arrays and the base placement.
void derive_base(const ir::Program& prog,
                 const std::vector<ir::BoundStencil>& stages,
                 const BuildOptions& opts, KernelPlan& plan) {
  ARTEMIS_CHECK_MSG(!stages.empty(), "cannot plan an empty stage list");

  plan.dims = static_cast<int>(prog.iterators.size());
  plan.iterators = prog.iterators;

  // Merge analysis over stages.
  std::vector<std::string> names;
  for (const auto& s : stages) names.push_back(s.name);
  plan.name = join(names, "+");
  std::vector<ir::StencilInfo> stage_infos;
  stage_infos.reserve(stages.size());
  {
    // Analyze each stage and merge arrays / flops / radii.
    for (const auto& stage : stages) {
      stage_infos.push_back(ir::analyze(prog, stage));
      const ir::StencilInfo& si = stage_infos.back();
      plan.info.flops_per_point += si.flops_per_point;
      plan.info.num_statements += si.num_statements;
      for (const auto& [name, ai] : si.arrays) {
        auto [it, inserted] = plan.info.arrays.try_emplace(name, ai);
        if (!inserted) {
          auto& dst = it->second;
          dst.read |= ai.read;
          dst.written |= ai.written;
          for (const auto& off : ai.read_offsets) {
            if (std::find(dst.read_offsets.begin(), dst.read_offsets.end(),
                          off) == dst.read_offsets.end()) {
              dst.read_offsets.push_back(off);
            }
          }
          for (const auto& off : ai.write_offsets) {
            if (std::find(dst.write_offsets.begin(), dst.write_offsets.end(),
                          off) == dst.write_offsets.end()) {
              dst.write_offsets.push_back(off);
            }
          }
          for (std::size_t d = 0; d < 3; ++d) {
            dst.radius[d] = std::max(dst.radius[d], ai.radius[d]);
          }
        }
      }
      for (const auto& s : si.scalars_read) plan.info.scalars_read.insert(s);
      for (std::size_t d = 0; d < 3; ++d) {
        plan.info.radius[d] += si.radius[d];  // fused recompute halo grows
      }
    }
    plan.info.order = *std::max_element(plan.info.radius.begin(),
                                        plan.info.radius.end());
    plan.info.num_io_arrays = static_cast<int>(plan.info.arrays.size());
    for (const auto& [name, ai] : plan.info.arrays) {
      if (ai.written) plan.info.outputs.push_back(name);
      if (ai.read) plan.info.inputs.push_back(name);
    }
  }

  plan.point_registers = gpumodel::point_registers(stages);

  // Convert cumulative radii (per iterator) to per-axis halo.
  for (int d = 0; d < plan.dims; ++d) {
    plan.radius[static_cast<std::size_t>(plan.dims - 1 - d)] =
        plan.info.radius[static_cast<std::size_t>(d)];
  }

  // Per-stage radii/expansions and per-array effective halos (the
  // overlapped-tiling recompute geometry of Sections III-A1 and VI-A).
  {
    const std::size_t n = stages.size();
    plan.stage_flops.resize(n);
    plan.stage_radius.assign(n, {0, 0, 0});
    plan.stage_expand.assign(n, {0, 0, 0});
    for (std::size_t s = 0; s < n; ++s) {
      plan.stage_flops[s] = stage_infos[s].flops_per_point;
      for (int d = 0; d < plan.dims; ++d) {
        plan.stage_radius[s][static_cast<std::size_t>(plan.dims - 1 - d)] =
            stage_infos[s].radius[static_cast<std::size_t>(d)];
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t s2 = s + 1; s2 < n; ++s2) {
        for (std::size_t a = 0; a < 3; ++a) {
          plan.stage_expand[s][a] += plan.stage_radius[s2][a];
        }
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& [name, ai] : stage_infos[s].arrays) {
        if (!ai.read) {
          plan.eff_halo.try_emplace(name, std::array<int, 3>{0, 0, 0});
          continue;
        }
        auto& eh = plan.eff_halo
                       .try_emplace(name, std::array<int, 3>{0, 0, 0})
                       .first->second;
        for (int d = 0; d < plan.dims; ++d) {
          const auto axis = static_cast<std::size_t>(plan.dims - 1 - d);
          eh[axis] = std::max(
              eh[axis], ai.radius[static_cast<std::size_t>(d)] +
                            plan.stage_expand[s][axis]);
        }
      }
    }
  }

  // Output domain: extents of the first written array of the last stage.
  {
    const std::string& out_name = [&]() -> const std::string& {
      for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
        for (const auto& st : it->stmts) {
          if (!st.declares_local) return st.lhs_name;
        }
      }
      throw PlanError("plan has no output statement");
    }();
    const ir::ArrayDecl* decl = prog.find_array(out_name);
    ARTEMIS_CHECK_MSG(decl != nullptr,
                      "output array '" << out_name << "' not declared");
    std::array<std::int64_t, 3> dims_zyx = {1, 1, 1};
    const std::size_t nd = decl->dims.size();
    for (std::size_t d = 0; d < nd; ++d) {
      dims_zyx[3 - nd + d] = prog.param_value(decl->dims[d]);
    }
    plan.domain = {dims_zyx[0], dims_zyx[1], dims_zyx[2]};
  }

  // Internal arrays: outputs of non-final stages consumed only inside the
  // plan and not copied out.
  if (opts.fuse_internal && stages.size() > 1) {
    std::set<std::string> copyout(prog.copyout.begin(), prog.copyout.end());
    for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
      for (const auto& st : stages[s].stmts) {
        if (st.declares_local) continue;
        const std::string& name = st.lhs_name;
        // Written by a non-final stage; is it read by any later stage?
        bool read_later = false;
        for (std::size_t s2 = s + 1; s2 < stages.size() && !read_later;
             ++s2) {
          for (const auto& st2 : stages[s2].stmts) {
            ir::visit(*st2.rhs, [&](const ir::Expr& e) {
              if (e.kind == ir::ExprKind::ArrayRef && e.name == name) {
                read_later = true;
              }
            });
          }
        }
        if (read_later &&
            std::find(plan.internal_arrays.begin(),
                      plan.internal_arrays.end(),
                      name) == plan.internal_arrays.end()) {
          plan.internal_arrays.push_back(name);
          if (copyout.count(name)) {
            plan.materialized_internals.push_back(name);
          }
        }
      }
    }
  }

  // --- residency assignment --------------------------------------------
  ir::ResourceAssignments pins;
  for (const auto& stage : stages) {
    for (const auto& [name, space] : stage.resources.spaces) {
      pins.spaces[name] = space;  // later stages win on conflict
    }
  }

  for (const auto& [name, ai] : plan.info.arrays) {
    Placement pl;
    const ir::MemSpace pinned = pins.lookup(name);
    const bool internal =
        std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                  name) != plan.internal_arrays.end();
    if (pinned != ir::MemSpace::Auto) {
      pl.space = pinned;
      pl.user_pinned = true;
    } else if (internal) {
      pl.space = opts.use_shared_memory ? ir::MemSpace::Shared
                                        : ir::MemSpace::Global;
    } else if (ai.written) {
      pl.space = ir::MemSpace::Global;  // external outputs stream to DRAM
    } else if (opts.use_shared_memory) {
      // Deliberately naive default: every input is staged in shared
      // memory, mirroring "most code generators will still use N shared
      // memory buffers per input array" (Section II-B1). The rationing
      // loop and user #assign pins refine this.
      pl.space = ir::MemSpace::Shared;
    } else {
      pl.space = ir::MemSpace::Global;
    }
    plan.placement[name] = pl;
  }
}

}  // namespace

StageTemplate::StageTemplate(const ir::Program& prog,
                             std::vector<ir::BoundStencil> stages,
                             const BuildOptions& opts) {
  try {
    derive_base(prog, stages, opts, base_);
    accesses_ = count_accesses(stages);
  } catch (...) {
    failure_ = std::current_exception();
  }
  base_.stages = std::move(stages);
}

bool StageTemplate::retimes(int stream_iter) const {
  const auto i = static_cast<std::size_t>(stream_iter);
  std::call_once(retime_once_[i], [&] {
    retimes_[i] = std::all_of(
        base_.stages.begin(), base_.stages.end(),
        [&](const ir::BoundStencil& stage) {
          return transform::try_retime(stage.stmts, stream_iter).applied;
        });
  });
  return retimes_[i];
}

const std::vector<std::vector<std::string>>& StageTemplate::fold_groups()
    const {
  std::call_once(fold_once_, [&] {
    std::vector<ir::Stmt> all_stmts;
    for (const auto& stage : base_.stages) {
      all_stmts.insert(all_stmts.end(), stage.stmts.begin(),
                       stage.stmts.end());
    }
    fold_groups_ = transform::find_fold_groups(all_stmts);
  });
  return fold_groups_;
}

struct StageTemplate::Fit {
  bool retimed = false;
  /// The template's fold groups when the config folds, else null.
  const std::vector<std::vector<std::string>>* fold_groups = nullptr;
  std::map<std::string, Placement> placement;
  std::int64_t shmem_bytes = 0;

  KernelPlan into(KernelPlan plan, const KernelConfig& config) && {
    plan.config = config;
    plan.time_tile = config.time_tile;
    plan.retimed = retimed;
    if (fold_groups != nullptr) plan.fold_groups = *fold_groups;
    plan.placement = std::move(placement);
    plan.shmem_bytes_per_block = shmem_bytes;
    return plan;
  }
};

struct StageTemplate::Rejection {
  enum class Kind {
    BlockTooLarge,    ///< more threads than the device allows per block
    BadFactor,        ///< a block or unroll factor below 1
    StreamAxis,       ///< the stream axis is not a domain axis
    StreamDims,       ///< streaming a 1D domain
    ShmemOverDevice,  ///< shared memory over capacity, no rationing
    ShmemNoVictim,    ///< over the rationed limit, nothing left to demote
  };
  Kind kind;
  std::int64_t demand = 0;  ///< threads or shared-memory bytes
  std::int64_t limit = 0;   ///< the bound `demand` exceeds

  /// The PlanError message configure() and build_plan() throw.
  std::string message() const {
    switch (kind) {
      case Kind::BlockTooLarge:
        return str_cat("block of ", demand, " threads exceeds device limit ",
                       limit);
      case Kind::BadFactor:
        return "block and unroll factors must be >= 1";
      case Kind::StreamAxis:
        return "stream axis out of range";
      case Kind::StreamDims:
        return "streaming requires a 2D or 3D domain";
      case Kind::ShmemOverDevice:
        return str_cat("shared memory demand ", demand,
                       " B exceeds the device's ", limit,
                       " B per block; use a smaller block, pin arrays "
                       "to gmem with #assign, or set an occupancy "
                       "target to enable rationing");
      case Kind::ShmemNoVictim:
        return str_cat("shared memory demand ", demand, " B exceeds limit ",
                       limit,
                       " B and no demotable buffer remains (block too "
                       "large?)");
    }
    return "infeasible configuration";
  }
};

std::optional<StageTemplate::Rejection> StageTemplate::fit(
    const KernelConfig& config, const gpumodel::DeviceSpec& dev,
    Fit& fit) const {
  using Kind = Rejection::Kind;
  if (failure_) std::rethrow_exception(failure_);
  const int dims = base_.dims;

  // Launch validity.
  if (config.threads_per_block() > dev.max_threads_per_block) {
    return Rejection{Kind::BlockTooLarge, config.threads_per_block(),
                     dev.max_threads_per_block};
  }
  for (int a = 0; a < 3; ++a) {
    if (config.block[static_cast<std::size_t>(a)] < 1 ||
        config.unroll[static_cast<std::size_t>(a)] < 1) {
      return Rejection{Kind::BadFactor};
    }
  }
  if (config.tiling != TilingScheme::Spatial3D &&
      (config.stream_axis < 0 || config.stream_axis >= dims)) {
    return Rejection{Kind::StreamAxis};
  }
  if (config.tiling != TilingScheme::Spatial3D && dims < 2) {
    return Rejection{Kind::StreamDims};
  }

  // Retiming (Section III-B2): legal only when every decomposed
  // sub-statement is homogenizable along the streaming iterator.
  if (config.retime && config.tiling != TilingScheme::Spatial3D) {
    fit.retimed = retimes(dims - 1 - config.stream_axis);
  }
  // Folding (Section III-B4).
  if (config.fold) fit.fold_groups = &fold_groups();

  // Attach fold groups to placements (fold only shared buffers).
  fit.placement = base_.placement;
  if (fit.fold_groups != nullptr) {
    const auto& groups = *fit.fold_groups;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      bool all_shared = true;
      for (const auto& name : groups[g]) {
        if (fit.placement.at(name).space != ir::MemSpace::Shared) {
          all_shared = false;
        }
      }
      if (all_shared) {
        for (const auto& name : groups[g]) {
          fit.placement.at(name).fold_group = static_cast<int>(g);
        }
      }
    }
  }

  // --- resource rationing -------------------------------------------------
  fit.shmem_bytes =
      compute_shmem_bytes(base_, config, fit.retimed, fit.placement);

  // Without an occupancy target there is no rationing: like the naive
  // generators of Section II-B1, an over-capacity mapping simply forces a
  // smaller block (this configuration is infeasible). Demotion is the
  // user-guided resource-rationing extension of Section II-B2.
  if (!config.target_occupancy && fit.shmem_bytes > dev.shmem_per_block) {
    return Rejection{Kind::ShmemOverDevice, fit.shmem_bytes,
                     dev.shmem_per_block};
  }

  const std::int64_t shmem_limit = [&]() -> std::int64_t {
    std::int64_t limit = dev.shmem_per_block;
    if (config.target_occupancy) {
      const double target = *config.target_occupancy;
      ARTEMIS_CHECK_MSG(target > 0.0 && target <= 1.0,
                        "occupancy target must be in (0,1]");
      const auto blocks_needed = static_cast<std::int64_t>(
          std::max(1.0, std::ceil(target * dev.max_threads_per_sm /
                                  static_cast<double>(
                                      config.threads_per_block()))));
      limit = std::min(limit, dev.shmem_per_sm / blocks_needed);
    }
    return limit;
  }();

  while (fit.shmem_bytes > shmem_limit) {
    // Demote the shared, non-pinned, non-internal array with the fewest
    // accesses. Internal arrays must stay shared (they carry fused data
    // between stages); if only internals remain over budget, fail.
    std::string victim;
    std::int64_t victim_accesses = 0;
    for (const auto& [name, pl] : fit.placement) {
      if (pl.space != ir::MemSpace::Shared || pl.user_pinned) continue;
      if (std::find(base_.internal_arrays.begin(),
                    base_.internal_arrays.end(),
                    name) != base_.internal_arrays.end()) {
        continue;
      }
      const auto it = accesses_.find(name);
      const std::int64_t n = it == accesses_.end() ? 0 : it->second;
      if (victim.empty() || n < victim_accesses) {
        victim = name;
        victim_accesses = n;
      }
    }
    if (victim.empty()) {
      return Rejection{Kind::ShmemNoVictim, fit.shmem_bytes, shmem_limit};
    }
    auto& pl = fit.placement.at(victim);
    pl.space = ir::MemSpace::Global;
    pl.fold_group = -1;
    fit.shmem_bytes =
        compute_shmem_bytes(base_, config, fit.retimed, fit.placement);
  }
  return std::nullopt;
}

StageTemplate::Fit StageTemplate::fit_or_throw(
    const KernelConfig& config, const gpumodel::DeviceSpec& dev) const {
  Fit out;
  if (const auto rejected = fit(config, dev, out)) {
    throw PlanError(rejected->message());
  }
  return out;
}

KernelPlan configure(const StageTemplate& tmpl, const KernelConfig& config,
                     const gpumodel::DeviceSpec& dev) {
  // fit() runs to completion before the template is copied.
  return tmpl.fit_or_throw(config, dev).into(tmpl.base_, config);
}

std::optional<KernelPlan> try_configure(const StageTemplate& tmpl,
                                        const KernelConfig& config,
                                        const gpumodel::DeviceSpec& dev) {
  StageTemplate::Fit fit;
  if (tmpl.fit(config, dev, fit)) return std::nullopt;
  return std::move(fit).into(tmpl.base_, config);
}

KernelPlan build_plan(const ir::Program& prog,
                      std::vector<ir::BoundStencil> stages,
                      const KernelConfig& config,
                      const gpumodel::DeviceSpec& dev,
                      const BuildOptions& opts) {
  StageTemplate tmpl(prog, std::move(stages), opts);
  return tmpl.fit_or_throw(config, dev).into(std::move(tmpl.base_), config);
}

KernelPlan build_plan_for_call(const ir::Program& prog,
                               const ir::StencilCall& call,
                               const KernelConfig& config,
                               const gpumodel::DeviceSpec& dev,
                               const BuildOptions& opts) {
  std::vector<ir::BoundStencil> stages;
  stages.push_back(ir::bind_call(prog, call));
  return build_plan(prog, std::move(stages), config, dev, opts);
}

}  // namespace artemis::codegen
