#include "artemis/sim/executor.hpp"

#include <algorithm>

#include "artemis/common/check.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::sim {

const char* engine_name(SimEngine engine) {
  switch (engine) {
    case SimEngine::Bytecode:
      return "bytecode";
    case SimEngine::Native:
      return "native";
  }
  return "bytecode";
}

namespace {

using codegen::KernelPlan;
using codegen::TilingScheme;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// A block-local scratch buffer standing in for the shared-memory (or
/// register-plane) storage of a fused internal array. Covers the block's
/// tile expanded by the plan's total halo; zero-initialized, like the
/// intermediate global arrays of the unfused reference schedule.
struct Scratch {
  std::array<std::int64_t, 3> lo = {0, 0, 0};  ///< global coords (z,y,x)
  Extents ext;
  std::vector<double> data;
  std::vector<std::uint8_t> written;  ///< guard-passed points only

  std::size_t index(std::int64_t z, std::int64_t y, std::int64_t x) const {
    return static_cast<std::size_t>(
        ((z - lo[0]) * ext.y + (y - lo[1])) * ext.x + (x - lo[2]));
  }
  double& at(std::int64_t z, std::int64_t y, std::int64_t x) {
    return data[index(z, y, x)];
  }
};

}  // namespace

ExecCounters execute_plan(const KernelPlan& plan, GridSet& gs,
                          const ExecOptions& opts) {
  telemetry::Span span("sim.execute_plan", "sim");
  span.arg("kernel", Json(plan.name));
  span.arg("engine", Json(engine_name(opts.engine)));
  robust::fault_point("sim.execute", plan.name);
  PlanTrace* trace = opts.trace;
  if (trace != nullptr) *trace = PlanTrace{};
  ExecCounters totals;
  const int dims = plan.dims;

  // --- geometry: block grid over tiled axes --------------------------------
  std::array<std::int64_t, 3> tile = {1, 1, 1};   // x, y, z
  std::array<std::int64_t, 3> domain = {plan.domain.x, plan.domain.y,
                                        plan.domain.z};
  for (int a = 0; a < dims; ++a) {
    tile[static_cast<std::size_t>(a)] =
        std::min(plan.tile_extent(a), domain[static_cast<std::size_t>(a)]);
  }
  const int sweep_axis = dims - 1;
  if (plan.config.tiling == TilingScheme::StreamSerial) {
    tile[static_cast<std::size_t>(sweep_axis)] =
        domain[static_cast<std::size_t>(sweep_axis)];
  } else if (plan.config.tiling == TilingScheme::StreamConcurrent) {
    tile[static_cast<std::size_t>(sweep_axis)] =
        std::min<std::int64_t>(plan.config.stream_chunk,
                               domain[static_cast<std::size_t>(sweep_axis)]);
  }
  std::array<std::int64_t, 3> nblocks = {1, 1, 1};
  for (int a = 0; a < dims; ++a) {
    nblocks[static_cast<std::size_t>(a)] =
        ceil_div(domain[static_cast<std::size_t>(a)],
                 tile[static_cast<std::size_t>(a)]);
  }
  const std::int64_t total_blocks = nblocks[0] * nblocks[1] * nblocks[2];
  totals.blocks = total_blocks;

  // The streamed axis of serial streaming carries no recompute expansion
  // (Fig. 1c); spatial tiling expands every axis.
  auto expansion = [&](std::size_t stage, int axis) -> std::int64_t {
    if (plan.config.tiling == TilingScheme::StreamSerial &&
        axis == sweep_axis) {
      return 0;
    }
    return plan.stage_expand[stage][static_cast<std::size_t>(axis)];
  };
  bool recompute = false;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    for (int a = 0; a < dims; ++a) {
      if (expansion(s, a) != 0) recompute = true;
    }
  }

  // --- binding: snapshots, slot tables and full-grid views, once per call --
  // Internal arrays live in block-local scratch and are never snapshotted.
  GridBinding bind(plan.info, gs, dims, recompute, plan.internal_arrays);
  std::vector<CompiledStencil> compiled;
  compiled.reserve(plan.stages.size());
  for (const auto& stage : plan.stages) {
    compiled.push_back(
        compile_stmts(stage.stmts, dims, bind.arrays, bind.scalars));
  }

  // Internal arrays, resolved once in plan.internal_arrays order: each
  // block patches its scratch windows into these view slots.
  std::vector<std::size_t> internal_slots;
  for (const auto& name : plan.internal_arrays) {
    const int slot = bind.arrays.slot(name);
    ARTEMIS_CHECK(slot >= 0);
    internal_slots.push_back(static_cast<std::size_t>(slot));
  }

  // Native engine: lower each compiled stage once per plan execution
  // (cheap next to compilation); stages the lowering refuses fall back to
  // the bytecode engine, whose semantics the native tier reproduces
  // bit-identically.
  const bool native = opts.engine == SimEngine::Native;
  std::vector<native::LowerResult> lowered;
  const native::Tier tier = native ? native::active_tier()
                                   : native::Tier::Scalar;
  if (native) {
    span.arg("native_tier", Json(native::tier_name(tier)));
    std::vector<std::uint8_t> is_scratch(bind.views.size(), 0);
    for (const std::size_t slot : internal_slots) is_scratch[slot] = 1;
    lowered.reserve(compiled.size());
    for (const auto& cs : compiled) {
      lowered.push_back(native::lower_stencil(cs, is_scratch));
      telemetry::counter_add(lowered.back().ok ? "sim.native_stages"
                                               : "sim.native_fallbacks");
    }
  }

  // Counting mode: lay the arrays out in one flat, disjoint, line-aligned
  // byte address space (slot order), the coordinate system of the line
  // streams. Internal arrays keep a base too: their scratch accesses are
  // never recorded, but materialized write-backs target the global copy.
  if (trace != nullptr) {
    std::uint64_t next_base = 0;
    for (auto& v : bind.views) {
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(v.wz * v.wy * v.wx) * sizeof(double);
      v.elem_base = next_base;
      next_base += (bytes + kTraceLineBytes - 1) / kTraceLineBytes *
                   kTraceLineBytes;
      trace->arrays.push_back(
          {*v.name, v.elem_base,
           static_cast<std::int64_t>(v.wz * v.wy * v.wx)});
    }
    // Line ids are 31-bit in the stream (see kTraceWriteBit); 64 GiB of
    // flat address space is far beyond any simulated grid set.
    ARTEMIS_CHECK_MSG(next_base / kTraceLineBytes < (1ull << 31),
                      "counting-mode address space overflows 31-bit line "
                      "ids");
    trace->stages.resize(plan.stages.size());
  }

  // --- one block of the sweep ----------------------------------------------
  // Counters accumulate into a per-block slot so totals reduce in block
  // order, independent of worker scheduling.
  const auto block_geometry = [&](std::int64_t block_id,
                                  std::array<std::int64_t, 3>& own_lo,
                                  std::array<std::int64_t, 3>& own_hi) {
    std::array<std::int64_t, 3> bc;  // block coords, x fastest
    bc[0] = block_id % nblocks[0];
    bc[1] = (block_id / nblocks[0]) % nblocks[1];
    bc[2] = block_id / (nblocks[0] * nblocks[1]);
    own_lo = {0, 0, 0};
    own_hi = {1, 1, 1};  // exclusive; x, y, z ordered
    for (int a = 0; a < dims; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      own_lo[idx] = bc[idx] * tile[idx];
      own_hi[idx] = std::min(own_lo[idx] + tile[idx], domain[idx]);
    }
  };

  // Every internal array's scratch covers the block's tile expanded by
  // the total plan halo (a superset of any stage's requirement), with no
  // halo along a serial-streaming sweep axis.
  std::array<std::int64_t, 3> halo = {0, 0, 0};  // x, y, z
  for (int a = 0; a < dims; ++a) {
    const auto idx = static_cast<std::size_t>(a);
    if (plan.config.tiling != TilingScheme::StreamSerial || a != sweep_axis) {
      halo[idx] = plan.radius[idx];
    }
  }
  const auto make_scratch = [&](const std::array<std::int64_t, 3>& own_lo,
                                const std::array<std::int64_t, 3>& own_hi) {
    Scratch s;
    std::array<std::int64_t, 3> ext = {1, 1, 1};
    for (int a = 0; a < dims; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      s.lo[2 - a] = own_lo[idx] - halo[idx];  // Scratch::lo is (z,y,x)
      ext[idx] = (own_hi[idx] - own_lo[idx]) + 2 * halo[idx];
    }
    s.ext = {ext[2], ext[1], ext[0]};
    s.data.assign(static_cast<std::size_t>(s.ext.volume()), 0.0);
    s.written.assign(static_cast<std::size_t>(s.ext.volume()), 0);
    return s;
  };

  // Stage compute region (zyx, clamped to the domain) for a block.
  const auto stage_region = [&](std::size_t s,
                                const std::array<std::int64_t, 3>& own_lo,
                                const std::array<std::int64_t, 3>& own_hi) {
    std::array<std::int64_t, 3> lo = own_lo, hi = own_hi;
    for (int a = 0; a < dims; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      const std::int64_t e = expansion(s, a);
      lo[idx] = std::max<std::int64_t>(lo[idx] - e, 0);
      hi[idx] = std::min(hi[idx] + e, domain[idx]);
    }
    BcRegion r;
    r.lo = {dims >= 3 ? lo[2] : 0, dims >= 2 ? lo[1] : 0, lo[0]};
    r.hi = {dims >= 3 ? hi[2] : 1, dims >= 2 ? hi[1] : 1, hi[0]};
    return r;
  };

  const auto commit_box = [&](const std::array<std::int64_t, 3>& own_lo,
                              const std::array<std::int64_t, 3>& own_hi) {
    BcRegion r;
    r.lo = {dims >= 3 ? own_lo[2] : 0, dims >= 2 ? own_lo[1] : 0, own_lo[0]};
    r.hi = {dims >= 3 ? own_hi[2] : 1, dims >= 2 ? own_hi[1] : 1, own_hi[0]};
    return r;
  };

  // Write back internal arrays that are also program outputs, in
  // plan.materialized_internals order: the owned tile of their scratch
  // commits to global memory.
  const auto materialize = [&](std::vector<Scratch>& scratch,
                               const BcRegion& own, BcCounters& c,
                               StageTrace* wb) {
    for (const auto& name : plan.materialized_internals) {
      const auto i = static_cast<std::size_t>(
          std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                    name) -
          plan.internal_arrays.begin());
      ARTEMIS_CHECK(i < scratch.size());
      Scratch& s = scratch[i];
      Grid3D& g = gs.grid(name);
      const ArrayView& v = bind.views[internal_slots[i]];
      for (std::int64_t z = own.lo[0]; z < own.hi[0]; ++z) {
        for (std::int64_t y = own.lo[1]; y < own.hi[1]; ++y) {
          for (std::int64_t x = own.lo[2]; x < own.hi[2]; ++x) {
            if (!g.in_bounds(z, y, x)) continue;
            if (!s.written[s.index(z, y, x)]) continue;
            g.at(z, y, x) = s.at(z, y, x);
            ++c.gwrites;
            if (wb != nullptr) {
              const std::uint64_t idx =
                  static_cast<std::uint64_t>((z * v.wy + y) * v.wx + x);
              wb->record(v.elem_base + idx * sizeof(double),
                         /*is_write=*/true);
            }
          }
        }
      }
    }
  };

  // Per-block counting slots: stage traces plus one write-back trace,
  // merged in block order after the sweep (same determinism argument as
  // the counter reduction).
  struct BlockTrace {
    std::vector<StageTrace> stages;
    StageTrace writeback;
  };

  const auto run_block_compiled = [&](std::int64_t block_id, BcCounters& c,
                                      BlockTrace* bt) {
    std::array<std::int64_t, 3> own_lo, own_hi;
    block_geometry(block_id, own_lo, own_hi);

    // The block patches its scratch windows into its copy of the views.
    std::vector<ArrayView> views = bind.views;
    std::vector<Scratch> scratch;
    scratch.reserve(internal_slots.size());
    for (const std::size_t slot : internal_slots) {
      Scratch& s = scratch.emplace_back(make_scratch(own_lo, own_hi));
      ArrayView& v = views[slot];
      v.read = s.data.data();
      v.write = s.data.data();
      v.written = s.written.data();
      v.scratch = true;
      v.lo_z = s.lo[0];
      v.lo_y = s.lo[1];
      v.lo_x = s.lo[2];
      v.wz = s.ext.z;
      v.wy = s.ext.y;
      v.wx = s.ext.x;
    }

    const BcRegion own = commit_box(own_lo, own_hi);
    if (bt != nullptr) bt->stages.resize(plan.stages.size());
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      StageTrace* st = bt != nullptr ? &bt->stages[s] : nullptr;
      if (native && lowered[s].ok) {
        native::run_native_region(lowered[s].prog, compiled[s], views,
                                  bind.scalar_vals.data(),
                                  stage_region(s, own_lo, own_hi), own,
                                  /*drop_outside_commit=*/true, c, st, tier);
      } else {
        run_compiled_region(compiled[s], views, bind.scalar_vals.data(),
                            stage_region(s, own_lo, own_hi), own,
                            /*drop_outside_commit=*/true, c, st);
      }
    }
    materialize(scratch, own, c, bt != nullptr ? &bt->writeback : nullptr);
  };

  std::vector<BcCounters> block_counters(
      static_cast<std::size_t>(total_blocks));
  std::vector<BlockTrace> block_traces(
      trace != nullptr ? static_cast<std::size_t>(total_blocks) : 0);
  const auto run_block = [&](std::int64_t b) {
    BcCounters c;
    run_block_compiled(b, c,
                       trace != nullptr
                           ? &block_traces[static_cast<std::size_t>(b)]
                           : nullptr);
    block_counters[static_cast<std::size_t>(b)] = c;
  };

  const int jobs = parallel_for(total_blocks, run_block, opts.jobs);
  span.arg("jobs", Json(jobs));

  // Deterministic reduction: block order, not completion order. Reserve
  // the concatenated stream sizes up front so the merge copies each
  // entry exactly once.
  if (trace != nullptr) {
    for (std::size_t s = 0; s < trace->stages.size(); ++s) {
      std::size_t total = 0;
      for (const auto& bt : block_traces) total += bt.stages[s].lines.size();
      trace->stages[s].lines.reserve(total);
    }
    for (auto& bt : block_traces) {
      for (std::size_t s = 0; s < trace->stages.size(); ++s) {
        trace->stages[s] += bt.stages[s];
      }
      trace->writeback += bt.writeback;
    }
  }
  BcCounters sum;
  for (const auto& c : block_counters) sum += c;
  totals.computed_points = sum.computed;
  totals.skipped_points = sum.skipped;
  totals.global_read_elems = sum.greads;
  totals.global_write_elems = sum.gwrites;
  totals.scratch_read_elems = sum.sreads;
  totals.scratch_write_elems = sum.swrites;
  return totals;
}

}  // namespace artemis::sim
