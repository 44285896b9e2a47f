#include "artemis/sim/native/native.hpp"

#include <algorithm>

#include "artemis/common/check.hpp"

namespace artemis::sim::native {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::Scalar:
      return "scalar";
    case Tier::Avx2:
      return "avx2";
    case Tier::Avx512:
      return "avx512";
  }
  return "scalar";
}

namespace {

Tier detect_hw() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return Tier::Avx512;
  if (__builtin_cpu_supports("avx2")) return Tier::Avx2;
#endif
  return Tier::Scalar;
}

/// The sub-box of `box` whose points' writes through `acc` pass the
/// commit test (the analytic form of exec_point's in_box check: each
/// access dimension constrains the point coordinate driving it).
BcRegion committed_points(const NAccess& acc, const BcRegion& box,
                          const BcRegion& commit) {
  BcRegion r = box;
  for (std::size_t d = 0; d < 3; ++d) {
    const std::int64_t lo = commit.lo[d], hi = commit.hi[d];
    const std::uint8_t s = acc.sel[d];
    if (s == 3) {
      if (acc.off[d] < lo || acc.off[d] >= hi) {
        r.hi = r.lo;
        return r;
      }
      continue;
    }
    r.lo[s] = std::max(r.lo[s], lo - acc.off[d]);
    r.hi[s] = std::min(r.hi[s], hi - acc.off[d]);
  }
  if (r.empty()) r.hi = r.lo;
  return r;
}

/// Bytecode window-checks every committed external write; the native box
/// runner stores blind, so the equivalent check runs once per box: the
/// element box the committed points write must sit inside the storage
/// window. A failure here is the same planner bug the per-point
/// ARTEMIS_CHECK reports.
void check_store_windows(const LinearProgram& lp,
                         const std::vector<ArrayView>& views,
                         const BcRegion& box, const BcRegion& commit,
                         bool drop) {
  for (const NStore& s : lp.stores) {
    if (s.acc.scratch) continue;
    const BcRegion pts =
        drop ? committed_points(s.acc, box, commit) : box;
    if (pts.empty()) continue;
    const ArrayView& v = views[static_cast<std::size_t>(s.acc.view)];
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      std::int64_t elo, ehi;  // half-open element range in array dim d
      if (s.acc.sel[d] == 3) {
        elo = s.acc.off[d];
        ehi = elo + 1;
      } else {
        elo = pts.lo[s.acc.sel[d]] + s.acc.off[d];
        ehi = pts.hi[s.acc.sel[d]] + s.acc.off[d];
      }
      ARTEMIS_CHECK_MSG(elo >= wlo[d] && ehi <= wlo[d] + wext[d],
                        "grid store of '" << *v.name
                                          << "' out of bounds (native)");
    }
  }
}

inline std::size_t view_index(const ArrayView& v, std::int64_t z,
                              std::int64_t y, std::int64_t x) {
  return static_cast<std::size_t>(
      ((z - v.lo_z) * v.wy + (y - v.lo_y)) * v.wx + (x - v.lo_x));
}

/// Emit the counting-mode line-stream records one natively-executed
/// interior row would have produced under the bytecode engine: per point
/// (x ascending) every external memory read in code order, then every
/// committed external write in statement order — exec_point's exact
/// record sequence. Records depend only on coordinates, so replay is
/// decoupled from execution.
void replay_row(const LinearProgram& lp, const std::vector<ArrayView>& views,
                StageTrace* trace, std::int64_t z, std::int64_t y,
                std::int64_t x0, std::int64_t x1, const BcRegion& commit,
                bool drop) {
  for (std::int64_t x = x0; x < x1; ++x) {
    const std::int64_t pt[4] = {z, y, x, 0};
    for (const std::int32_t li : lp.replay_reads) {
      const NAccess& a = lp.loads[static_cast<std::size_t>(li)];
      const ArrayView& v = views[static_cast<std::size_t>(a.view)];
      const std::int64_t cz = pt[a.sel[0]] + a.off[0];
      const std::int64_t cy = pt[a.sel[1]] + a.off[1];
      const std::int64_t cx = pt[a.sel[2]] + a.off[2];
      trace->record(
          v.elem_base + view_index(v, cz, cy, cx) * sizeof(double),
          /*is_write=*/false);
    }
    for (const NStore& s : lp.stores) {
      if (s.acc.scratch) continue;
      const std::int64_t cz = pt[s.acc.sel[0]] + s.acc.off[0];
      const std::int64_t cy = pt[s.acc.sel[1]] + s.acc.off[1];
      const std::int64_t cx = pt[s.acc.sel[2]] + s.acc.off[2];
      if (drop && !(cz >= commit.lo[0] && cz < commit.hi[0] &&
                    cy >= commit.lo[1] && cy < commit.hi[1] &&
                    cx >= commit.lo[2] && cx < commit.hi[2])) {
        continue;
      }
      const ArrayView& v = views[static_cast<std::size_t>(s.acc.view)];
      trace->record(
          v.elem_base + view_index(v, cz, cy, cx) * sizeof(double),
          /*is_write=*/true);
    }
  }
}

}  // namespace

Tier active_tier() {
  static const Tier tier = detect_hw();
  return tier;
}

RunBoxFn run_box(Tier tier) {
  switch (tier) {
    case Tier::Avx512:
      return &run_box_avx512;
    case Tier::Avx2:
      return &run_box_avx2;
    case Tier::Scalar:
      break;
  }
  return &run_box_scalar;
}

void add_interior_counters(const LinearProgram& lp, const BcRegion& box,
                           const BcRegion& commit, bool drop_outside_commit,
                           BcCounters& c) {
  const std::int64_t vol = box.volume();
  if (vol == 0) return;
  c.computed += vol;  // interior points never veto
  c.greads += lp.greads_pp * vol;
  c.sreads += lp.sreads_pp * vol;
  c.swrites += lp.swrites_pp * vol;
  for (const NStore& s : lp.stores) {
    if (s.acc.scratch) continue;
    c.gwrites += drop_outside_commit
                     ? committed_points(s.acc, box, commit).volume()
                     : vol;
  }
}

void run_native_region(const LinearProgram& lp, const CompiledStencil& cs,
                       const std::vector<ArrayView>& views,
                       const double* scalars, const BcRegion& region,
                       const BcRegion& commit, bool drop_outside_commit,
                       BcCounters& counters, StageTrace* trace, Tier tier) {
  if (region.empty()) return;
  const BcRegion in = interior_region(cs, views, region);
  const RunBoxFn box_fn = run_box(tier);

  if (trace == nullptr) {
    if (in.empty()) {
      run_compiled_region(cs, views, scalars, region, commit,
                          drop_outside_commit, counters);
      return;
    }
    check_store_windows(lp, views, in, commit, drop_outside_commit);
    // Rim: six slabs partitioning region \ interior. Each slab's own
    // interior is empty (it is clipped by the very read constraint that
    // bounded `in`), so these run fully checked; point order across
    // slabs does not matter because lowering refused every
    // order-dependent construct (see lower.cpp).
    const auto rim = [&](std::array<std::int64_t, 3> lo,
                         std::array<std::int64_t, 3> hi) {
      BcRegion r;
      r.lo = lo;
      r.hi = hi;
      if (!r.empty()) {
        run_compiled_region(cs, views, scalars, r, commit,
                            drop_outside_commit, counters);
      }
    };
    const auto& rl = region.lo;
    const auto& rh = region.hi;
    rim({rl[0], rl[1], rl[2]}, {in.lo[0], rh[1], rh[2]});  // z-pre
    rim({in.hi[0], rl[1], rl[2]}, {rh[0], rh[1], rh[2]});  // z-post
    rim({in.lo[0], rl[1], rl[2]}, {in.hi[0], in.lo[1], rh[2]});  // y-pre
    rim({in.lo[0], in.hi[1], rl[2]}, {in.hi[0], rh[1], rh[2]});  // y-post
    rim({in.lo[0], in.lo[1], rl[2]},
        {in.hi[0], in.hi[1], in.lo[2]});  // x-pre
    rim({in.lo[0], in.lo[1], in.hi[2]},
        {in.hi[0], in.hi[1], rh[2]});  // x-post
    box_fn(lp, views.data(), scalars, in, commit, drop_outside_commit);
    add_interior_counters(lp, in, commit, drop_outside_commit, counters);
    return;
  }

  // Counting mode: reproduce run_split_region's row-major interleaving of
  // rim spans and interior rows exactly, so the coalesced line stream is
  // bit-identical to the bytecode engine's. Interior rows execute
  // natively (within-row point order matches: x ascending, commits in
  // statement order) and their records replay analytically.
  trace->flops_per_point = cs.flops_per_point;
  const std::int64_t pts = region.volume();
  trace->lines.reserve(trace->lines.size() + static_cast<std::size_t>(pts) *
                                                 (cs.accesses.size() + 1));
  BcCounters ci, cr;
  RimRunner rim(cs, views, scalars, commit, drop_outside_commit);
  if (!in.empty()) {
    check_store_windows(lp, views, in, commit, drop_outside_commit);
  }
  for (std::int64_t z = region.lo[0]; z < region.hi[0]; ++z) {
    const bool z_in = z >= in.lo[0] && z < in.hi[0];
    for (std::int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      if (!z_in || y < in.lo[1] || y >= in.hi[1]) {
        rim.run(z, y, region.lo[2], region.hi[2], cr, trace);
        continue;
      }
      rim.run(z, y, region.lo[2], in.lo[2], cr, trace);
      BcRegion row;
      row.lo = {z, y, in.lo[2]};
      row.hi = {z + 1, y + 1, in.hi[2]};
      box_fn(lp, views.data(), scalars, row, commit, drop_outside_commit);
      add_interior_counters(lp, row, commit, drop_outside_commit, ci);
      replay_row(lp, views, trace, z, y, in.lo[2], in.hi[2], commit,
                 drop_outside_commit);
      rim.run(z, y, in.hi[2], region.hi[2], cr, trace);
    }
  }
  trace->interior += ci;
  trace->rim += cr;
  counters += ci;
  counters += cr;
}

}  // namespace artemis::sim::native
