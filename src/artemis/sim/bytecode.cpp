#include "artemis/sim/bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"

namespace artemis::sim {

int SlotMap::add(const std::string& name) {
  const auto [it, inserted] =
      index_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int SlotMap::slot(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

const std::string& SlotMap::name(int slot) const {
  return names_.at(static_cast<std::size_t>(slot));
}

namespace {

/// Emission state: tracks stack depth, declared locals (with positional
/// shadowing of program scalars, exactly like the tree walk's locals map),
/// and which arrays already have a pending store.
struct Emitter {
  CompiledStencil out;
  const SlotMap* arrays = nullptr;
  const SlotMap* scalars = nullptr;
  std::map<std::string, int> local_slots;  ///< declared so far
  std::set<std::int32_t> stored_arrays;    ///< arrays with an earlier Store
  int depth = 0;

  void emit(BcOp op, std::int32_t a = 0) {
    out.code.push_back({op, a});
    switch (op) {
      case BcOp::PushConst:
      case BcOp::PushScalar:
      case BcOp::PushLocal:
      case BcOp::Load:
        ++depth;
        break;
      case BcOp::Add:
      case BcOp::Sub:
      case BcOp::Mul:
      case BcOp::Div:
      case BcOp::Min:
      case BcOp::Max:
      case BcOp::Pow:
      case BcOp::StoreLocal:
      case BcOp::Store:
      case BcOp::StoreAccum:
        --depth;
        break;
      default:
        break;  // unary: depth unchanged
    }
    out.max_stack = std::max(out.max_stack, depth);
    // ir::flop_count's convention: one FLOP per Unary/Binary/Call node
    // plus one per `+=` read-through accumulate.
    switch (op) {
      case BcOp::Neg:
      case BcOp::Add:
      case BcOp::Sub:
      case BcOp::Mul:
      case BcOp::Div:
      case BcOp::Sqrt:
      case BcOp::Fabs:
      case BcOp::Exp:
      case BcOp::Log:
      case BcOp::Min:
      case BcOp::Max:
      case BcOp::Pow:
      case BcOp::StoreAccum:
        ++out.flops_per_point;
        break;
      default:
        break;
    }
  }

  std::int32_t make_access(const std::string& array,
                           const std::vector<ir::IndexExpr>& indices) {
    const int slot = arrays->slot(array);
    ARTEMIS_CHECK_MSG(slot >= 0, "unbound array '" << array << "'");
    const std::size_t nd = indices.size();
    ARTEMIS_CHECK(nd >= 1 && nd <= 3);
    BcAccess a;
    a.array = slot;
    for (std::size_t d = 0; d < nd; ++d) {
      const auto& ix = indices[d];
      const std::size_t zyx = 3 - nd + d;  // trailing-axis mapping
      a.off[zyx] = ix.offset;
      if (!ix.is_const()) {
        ARTEMIS_CHECK(ix.iter >= 0 && ix.iter < out.dims);
        // Iterator i (outermost first) drives point coordinate
        // {z,y,x}[3 - dims + i].
        a.sel[zyx] = static_cast<std::uint8_t>(3 - out.dims + ix.iter);
      }
    }
    a.scan_pending = stored_arrays.count(slot) > 0;
    out.accesses.push_back(a);
    return static_cast<std::int32_t>(out.accesses.size() - 1);
  }

  void emit_expr(const ir::Expr& e) {
    using ir::ExprKind;
    switch (e.kind) {
      case ExprKind::Number: {
        out.consts.push_back(e.number);
        emit(BcOp::PushConst,
             static_cast<std::int32_t>(out.consts.size() - 1));
        return;
      }
      case ExprKind::ScalarRef: {
        if (const auto it = local_slots.find(e.name);
            it != local_slots.end()) {
          emit(BcOp::PushLocal, it->second);
          return;
        }
        const int slot = scalars->slot(e.name);
        ARTEMIS_CHECK_MSG(slot >= 0, "unbound scalar '" << e.name << "'");
        emit(BcOp::PushScalar, slot);
        return;
      }
      case ExprKind::ArrayRef:
        emit(BcOp::Load, make_access(e.name, e.indices));
        return;
      case ExprKind::Unary:
        emit_expr(*e.args[0]);
        emit(BcOp::Neg);
        return;
      case ExprKind::Binary:
        emit_expr(*e.args[0]);
        emit_expr(*e.args[1]);
        switch (e.bop) {
          case ir::BinOp::Add: emit(BcOp::Add); return;
          case ir::BinOp::Sub: emit(BcOp::Sub); return;
          case ir::BinOp::Mul: emit(BcOp::Mul); return;
          case ir::BinOp::Div: emit(BcOp::Div); return;
        }
        return;
      case ExprKind::Call: {
        for (const auto& a : e.args) emit_expr(*a);
        const auto unary = [&](BcOp op) {
          ARTEMIS_CHECK_MSG(e.args.size() == 1,
                            "intrinsic '" << e.name << "' takes 1 argument");
          emit(op);
        };
        const auto binary = [&](BcOp op) {
          ARTEMIS_CHECK_MSG(e.args.size() == 2,
                            "intrinsic '" << e.name << "' takes 2 arguments");
          emit(op);
        };
        if (e.name == "sqrt") return unary(BcOp::Sqrt);
        if (e.name == "fabs") return unary(BcOp::Fabs);
        if (e.name == "exp") return unary(BcOp::Exp);
        if (e.name == "log") return unary(BcOp::Log);
        if (e.name == "min") return binary(BcOp::Min);
        if (e.name == "max") return binary(BcOp::Max);
        if (e.name == "pow") return binary(BcOp::Pow);
        throw Error(str_cat("unknown intrinsic '", e.name, "'"));
      }
    }
  }
};

}  // namespace

CompiledStencil compile_stmts(const std::vector<ir::Stmt>& stmts, int dims,
                              const SlotMap& arrays, const SlotMap& scalars) {
  ARTEMIS_CHECK(dims >= 1 && dims <= 3);
  Emitter em;
  em.out.dims = dims;
  em.arrays = &arrays;
  em.scalars = &scalars;

  for (const auto& st : stmts) {
    em.emit_expr(*st.rhs);
    if (st.declares_local) {
      const auto [it, inserted] =
          em.local_slots.try_emplace(st.lhs_name, em.out.n_locals);
      if (inserted) ++em.out.n_locals;
      em.emit(BcOp::StoreLocal, it->second);
      continue;
    }
    const std::int32_t access = em.make_access(st.lhs_name, st.lhs_indices);
    em.emit(st.accumulate ? BcOp::StoreAccum : BcOp::Store, access);
    em.stored_arrays.insert(em.out.accesses[static_cast<std::size_t>(access)]
                                .array);
    ++em.out.n_stores;
  }
  ARTEMIS_CHECK(em.depth == 0);
  return em.out;
}

namespace {

struct PendingWrite {
  std::int32_t array;
  std::int64_t z, y, x;
  double v;
};

/// Per-sweep mutable state, reused across points (no per-point allocation).
struct ExecScratch {
  std::vector<double> stack;
  std::vector<double> locals;
  std::vector<PendingWrite> pending;

  explicit ExecScratch(const CompiledStencil& cs)
      : stack(static_cast<std::size_t>(std::max(1, cs.max_stack))),
        locals(static_cast<std::size_t>(std::max(1, cs.n_locals))),
        pending(static_cast<std::size_t>(std::max(1, cs.n_stores))) {}
};

inline std::size_t view_index(const ArrayView& v, std::int64_t z,
                              std::int64_t y, std::int64_t x) {
  return static_cast<std::size_t>(
      ((z - v.lo_z) * v.wy + (y - v.lo_y)) * v.wx + (x - v.lo_x));
}

inline bool in_window(const ArrayView& v, std::int64_t z, std::int64_t y,
                      std::int64_t x) {
  return z >= v.lo_z && z < v.lo_z + v.wz && y >= v.lo_y &&
         y < v.lo_y + v.wy && x >= v.lo_x && x < v.lo_x + v.wx;
}

inline bool in_box(const BcRegion& b, std::int64_t z, std::int64_t y,
                   std::int64_t x) {
  return z >= b.lo[0] && z < b.hi[0] && y >= b.lo[1] && y < b.hi[1] &&
         x >= b.lo[2] && x < b.hi[2];
}

/// Apply the compiled statement list at one point. Returns false when the
/// point is vetoed by an out-of-bounds read (nothing is written, exactly
/// like apply_stmts_at_point). kChecked=false is the interior fast path:
/// bounds are provably satisfied, so guards compile away; counters are
/// still maintained per element because pending-buffer hits (which do not
/// count as reads) are data-dependent.
template <bool kChecked, bool kCounted = false>
bool exec_point(const CompiledStencil& cs, const ArrayView* views,
                const double* scalars, ExecScratch& st, std::int64_t z,
                std::int64_t y, std::int64_t x, const BcRegion& commit,
                bool drop_outside_commit, BcCounters& c,
                StageTrace* trace = nullptr) {
  double* sp = st.stack.data();
  double* locals = st.locals.data();
  PendingWrite* pending = st.pending.data();
  int n_pending = 0;
  const std::int64_t base[4] = {z, y, x, 0};
  const double* consts = cs.consts.data();
  const BcAccess* accesses = cs.accesses.data();

  // Read one element through the pending-write buffer; false = veto.
  const auto read_at = [&](const BcAccess& a, double& value) -> bool {
    const std::int64_t cz = base[a.sel[0]] + a.off[0];
    const std::int64_t cy = base[a.sel[1]] + a.off[1];
    const std::int64_t cx = base[a.sel[2]] + a.off[2];
    if (a.scan_pending) {
      for (int p = n_pending - 1; p >= 0; --p) {
        const PendingWrite& w = pending[p];
        if (w.array == a.array && w.z == cz && w.y == cy && w.x == cx) {
          value = w.v;
          return true;
        }
      }
    }
    const ArrayView& v = views[a.array];
    if constexpr (kChecked) {
      if (cz < 0 || cz >= v.ez || cy < 0 || cy >= v.ey || cx < 0 ||
          cx >= v.ex) {
        return false;  // vetoes the point; not counted
      }
      if (v.scratch) {
        ARTEMIS_CHECK_MSG(in_window(v, cz, cy, cx),
                          "internal read of '"
                              << *v.name << "' at (" << cz << "," << cy << ","
                              << cx
                              << ") escapes its scratch region: plan halo "
                                 "geometry is wrong");
      }
    }
    const std::size_t idx = view_index(v, cz, cy, cx);
    value = v.read[idx];
    if (v.scratch) {
      ++c.sreads;
    } else {
      ++c.greads;
      if constexpr (kCounted) {
        trace->record(v.elem_base + idx * sizeof(double), /*is_write=*/false);
      }
    }
    return true;
  };

  for (const BcInstr& ins : cs.code) {
    switch (ins.op) {
      case BcOp::PushConst:
        *sp++ = consts[ins.a];
        break;
      case BcOp::PushScalar:
        *sp++ = scalars[ins.a];
        break;
      case BcOp::PushLocal:
        *sp++ = locals[ins.a];
        break;
      case BcOp::Load: {
        double v;
        if (!read_at(accesses[ins.a], v)) return false;
        *sp++ = v;
        break;
      }
      case BcOp::Neg:
        sp[-1] = -sp[-1];
        break;
      case BcOp::Add:
        sp[-2] = sp[-2] + sp[-1];
        --sp;
        break;
      case BcOp::Sub:
        sp[-2] = sp[-2] - sp[-1];
        --sp;
        break;
      case BcOp::Mul:
        sp[-2] = sp[-2] * sp[-1];
        --sp;
        break;
      case BcOp::Div:
        sp[-2] = sp[-2] / sp[-1];
        --sp;
        break;
      case BcOp::Sqrt:
        sp[-1] = std::sqrt(sp[-1]);
        break;
      case BcOp::Fabs:
        sp[-1] = std::fabs(sp[-1]);
        break;
      case BcOp::Exp:
        sp[-1] = std::exp(sp[-1]);
        break;
      case BcOp::Log:
        sp[-1] = std::log(sp[-1]);
        break;
      case BcOp::Min:
        sp[-2] = std::min(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::Max:
        sp[-2] = std::max(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::Pow:
        sp[-2] = std::pow(sp[-2], sp[-1]);
        --sp;
        break;
      case BcOp::StoreLocal:
        locals[ins.a] = *--sp;
        break;
      case BcOp::Store: {
        const BcAccess& a = accesses[ins.a];
        pending[n_pending++] = {a.array, base[a.sel[0]] + a.off[0],
                                base[a.sel[1]] + a.off[1],
                                base[a.sel[2]] + a.off[2], *--sp};
        break;
      }
      case BcOp::StoreAccum: {
        const BcAccess& a = accesses[ins.a];
        double cur;
        if (!read_at(a, cur)) return false;
        pending[n_pending++] = {a.array, base[a.sel[0]] + a.off[0],
                                base[a.sel[1]] + a.off[1],
                                base[a.sel[2]] + a.off[2], *--sp + cur};
        break;
      }
    }
  }

  // Atomic buffered commit: every read was in bounds, so all writes land,
  // in statement order.
  for (int p = 0; p < n_pending; ++p) {
    const PendingWrite& w = pending[p];
    const ArrayView& v = views[w.array];
    if (v.scratch) {
      if constexpr (kChecked) {
        ARTEMIS_CHECK_MSG(in_window(v, w.z, w.y, w.x),
                          "internal write of '" << *v.name
                                                << "' escapes scratch");
      }
      const std::size_t i = view_index(v, w.z, w.y, w.x);
      v.write[i] = w.v;
      v.written[i] = 1;
      ++c.swrites;
      continue;
    }
    if (drop_outside_commit && !in_box(commit, w.z, w.y, w.x)) continue;
    // Committed external writes are always window-checked (Grid3D::at does
    // the same); stores are few per point, so this stays off the hot reads.
    ARTEMIS_CHECK_MSG(in_window(v, w.z, w.y, w.x),
                      "grid access (" << w.z << "," << w.y << "," << w.x
                                      << ") out of bounds");
    const std::size_t i = view_index(v, w.z, w.y, w.x);
    v.write[i] = w.v;
    ++c.gwrites;
    if constexpr (kCounted) {
      trace->record(v.elem_base + i * sizeof(double), /*is_write=*/true);
    }
  }
  return true;
}

}  // namespace

BcRegion interior_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const BcRegion& region) {
  BcRegion r = region;
  const auto clamp_empty = [&r] {
    r.hi = r.lo;  // canonical empty box
  };

  // Constrain the point coordinate driving access dimension d so that the
  // coordinate stays inside [lo_b, hi_b).
  const auto apply = [&](std::uint8_t sel, std::int64_t off,
                         std::int64_t lo_b, std::int64_t hi_b) {
    if (sel == 3) {
      if (off < lo_b || off >= hi_b) clamp_empty();
      return;
    }
    r.lo[sel] = std::max(r.lo[sel], lo_b - off);
    r.hi[sel] = std::min(r.hi[sel], hi_b - off);
  };

  const auto constrain_read = [&](const BcAccess& a) {
    const ArrayView& v = views[static_cast<std::size_t>(a.array)];
    const std::int64_t e[3] = {v.ez, v.ey, v.ex};
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      std::int64_t lo_b = 0, hi_b = e[d];
      if (v.scratch) {  // the rim's escape CHECK must be unreachable here
        lo_b = std::max(lo_b, wlo[d]);
        hi_b = std::min(hi_b, wlo[d] + wext[d]);
      }
      apply(a.sel[d], a.off[d], lo_b, hi_b);
    }
  };

  const auto constrain_store = [&](const BcAccess& a) {
    const ArrayView& v = views[static_cast<std::size_t>(a.array)];
    // External stores window-check at commit time on every path (they are
    // rare per point), so only scratch stores shrink the interior.
    if (!v.scratch) return;
    const std::int64_t wlo[3] = {v.lo_z, v.lo_y, v.lo_x};
    const std::int64_t wext[3] = {v.wz, v.wy, v.wx};
    for (std::size_t d = 0; d < 3; ++d) {
      apply(a.sel[d], a.off[d], wlo[d], wlo[d] + wext[d]);
    }
  };

  for (const BcInstr& ins : cs.code) {
    switch (ins.op) {
      case BcOp::Load:
        constrain_read(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      case BcOp::StoreAccum:
        constrain_read(cs.accesses[static_cast<std::size_t>(ins.a)]);
        constrain_store(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      case BcOp::Store:
        constrain_store(cs.accesses[static_cast<std::size_t>(ins.a)]);
        break;
      default:
        break;
    }
    if (r.empty()) break;
  }
  if (r.empty()) clamp_empty();
  return r;
}

namespace {

/// The interior/rim split sweep shared by the plain and counting paths.
/// Interior accesses charge `ci`, rim accesses `cr` — the plain path
/// aliases both to the caller's counter so the split is free; the
/// counting path keeps them apart for per-block-class metrics.
template <bool kCounted>
void run_split_region(const CompiledStencil& cs,
                      const std::vector<ArrayView>& views,
                      const double* scalars, const BcRegion& region,
                      const BcRegion& commit, bool drop_outside_commit,
                      ExecScratch& st, BcCounters& ci, BcCounters& cr,
                      StageTrace* trace) {
  const ArrayView* vp = views.data();
  const BcRegion in = interior_region(cs, views, region);

  const auto rim_run = [&](std::int64_t z, std::int64_t y, std::int64_t x0,
                           std::int64_t x1) {
    for (std::int64_t x = x0; x < x1; ++x) {
      if (exec_point<true, kCounted>(cs, vp, scalars, st, z, y, x, commit,
                                     drop_outside_commit, cr, trace)) {
        ++cr.computed;
      } else {
        ++cr.skipped;
      }
    }
  };

  for (std::int64_t z = region.lo[0]; z < region.hi[0]; ++z) {
    const bool z_in = z >= in.lo[0] && z < in.hi[0];
    for (std::int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
      if (!z_in || y < in.lo[1] || y >= in.hi[1]) {
        rim_run(z, y, region.lo[2], region.hi[2]);
        continue;
      }
      rim_run(z, y, region.lo[2], in.lo[2]);
      for (std::int64_t x = in.lo[2]; x < in.hi[2]; ++x) {
        exec_point<false, kCounted>(cs, vp, scalars, st, z, y, x, commit,
                                    drop_outside_commit, ci, trace);
      }
      ci.computed += in.hi[2] - in.lo[2];  // interior points never veto
      rim_run(z, y, in.hi[2], region.hi[2]);
    }
  }
}

}  // namespace

void run_compiled_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const double* scalars, const BcRegion& region,
                         const BcRegion& commit, bool drop_outside_commit,
                         BcCounters& c, StageTrace* trace) {
  if (region.empty()) return;
  ExecScratch st(cs);

  if (trace != nullptr) {
    // Counting mode: identical execution, with interior/rim accesses
    // accumulated apart and the global line stream recorded. The caller's
    // counter receives the exact same totals as a plain run.
    trace->flops_per_point = cs.flops_per_point;
    // Pre-size the line stream: one entry per load plus a write per point
    // is a tight upper bound (merging only shrinks it), and it keeps the
    // hot push_back from ever reallocating mid-sweep.
    const std::int64_t pts = (region.hi[0] - region.lo[0]) *
                             (region.hi[1] - region.lo[1]) *
                             (region.hi[2] - region.lo[2]);
    trace->lines.reserve(trace->lines.size() +
                         static_cast<std::size_t>(pts) *
                             (cs.accesses.size() + 1));
    BcCounters ci, cr;
    run_split_region<true>(cs, views, scalars, region, commit,
                           drop_outside_commit, st, ci, cr, trace);
    trace->interior += ci;
    trace->rim += cr;
    c += ci;
    c += cr;
    return;
  }

  run_split_region<false>(cs, views, scalars, region, commit,
                          drop_outside_commit, st, c, c, nullptr);
}

struct RimRunner::Impl {
  const CompiledStencil& cs;
  const std::vector<ArrayView>& views;
  const double* scalars;
  BcRegion commit;
  bool drop;
  ExecScratch st;

  Impl(const CompiledStencil& c, const std::vector<ArrayView>& v,
       const double* s, const BcRegion& cb, bool d)
      : cs(c), views(v), scalars(s), commit(cb), drop(d), st(c) {}
};

RimRunner::RimRunner(const CompiledStencil& cs,
                     const std::vector<ArrayView>& views,
                     const double* scalars, const BcRegion& commit,
                     bool drop_outside_commit)
    : impl_(std::make_unique<Impl>(cs, views, scalars, commit,
                                   drop_outside_commit)) {}

RimRunner::~RimRunner() = default;

void RimRunner::run(std::int64_t z, std::int64_t y, std::int64_t x0,
                    std::int64_t x1, BcCounters& c, StageTrace* trace) {
  Impl& im = *impl_;
  const ArrayView* vp = im.views.data();
  if (trace != nullptr) {
    for (std::int64_t x = x0; x < x1; ++x) {
      if (exec_point<true, true>(im.cs, vp, im.scalars, im.st, z, y, x,
                                 im.commit, im.drop, c, trace)) {
        ++c.computed;
      } else {
        ++c.skipped;
      }
    }
    return;
  }
  for (std::int64_t x = x0; x < x1; ++x) {
    if (exec_point<true>(im.cs, vp, im.scalars, im.st, z, y, x, im.commit,
                         im.drop, c)) {
      ++c.computed;
    } else {
      ++c.skipped;
    }
  }
}

bool needs_snapshot(const ir::ArrayAccessInfo& ai, int dims, bool recompute) {
  if (!ai.read || !ai.written) return false;
  // A read can see another point's cell when it is off-center, uses a
  // constant index, or indexes differently from a write: a zero-offset
  // B[j][k][i] read against a B[k][j][i] write is a transpose.
  bool non_center = false;
  for (const auto& off : ai.read_offsets) {
    for (const auto& w : ai.write_offsets) {
      if (off != w) non_center = true;
    }
    for (const auto& ix : off) {
      if (ix.is_const() || ix.offset != 0) non_center = true;
    }
  }
  if (!non_center) return false;
  if (recompute) return true;  // overlapped tiling recomputes points
  // Aliasing-free: one canonical index vector (dim d driven by iterator d,
  // full coverage) shared by every read and write means a read at point p
  // can only resolve to p's own write, which the pending buffer handles.
  if (ai.dims != dims || ai.write_offsets.empty()) return true;
  const auto& ref = ai.write_offsets.front();
  if (static_cast<int>(ref.size()) != dims) return true;
  for (int d = 0; d < dims; ++d) {
    if (ref[static_cast<std::size_t>(d)].iter != d) return true;
  }
  for (const auto& w : ai.write_offsets) {
    if (w != ref) return true;
  }
  for (const auto& r : ai.read_offsets) {
    if (r != ref) return true;
  }
  return false;
}

GridBinding::GridBinding(const ir::StencilInfo& info, GridSet& gs, int dims,
                         bool recompute,
                         const std::vector<std::string>& no_snapshot) {
  for (const auto& [name, ai] : info.arrays) {
    arrays.add(name);
    if (std::find(no_snapshot.begin(), no_snapshot.end(), name) ==
            no_snapshot.end() &&
        needs_snapshot(ai, dims, recompute)) {
      snapshots.emplace(name, gs.grid(name));
    }
  }
  for (const auto& name : info.scalars_read) {
    scalars.add(name);
    scalar_vals.push_back(gs.scalar(name));
  }
  views.resize(static_cast<std::size_t>(arrays.size()));
  for (int slot = 0; slot < arrays.size(); ++slot) {
    const std::string& name = arrays.name(slot);
    ArrayView& v = views[static_cast<std::size_t>(slot)];
    v.name = &name;
    Grid3D& g = gs.grid(name);
    const Extents e = g.extents();
    v.ez = v.wz = e.z;
    v.ey = v.wy = e.y;
    v.ex = v.wx = e.x;
    v.write = g.data();
    const auto snap = snapshots.find(name);
    v.read = snap != snapshots.end() ? snap->second.data() : g.data();
  }
}

}  // namespace artemis::sim
