#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"
#include "artemis/sim/native/native.hpp"

namespace artemis::sim::native {

namespace {

/// (array slot, selectors, offsets): the static identity of one access.
/// Equal keys touch the same element at every point; keys that agree on
/// selectors but differ in some offset touch provably distinct elements
/// at every point.
struct AccessKey {
  std::int32_t array;
  std::array<std::uint8_t, 3> sel;
  std::array<std::int64_t, 3> off;
  auto operator<=>(const AccessKey&) const = default;
};

AccessKey key_of(const BcAccess& a) { return {a.array, a.sel, a.off}; }

/// Virtual registers are uint16; a postfix program allocates at most one
/// register per instruction, so bounding the code bounds the file.
constexpr std::size_t kMaxCode = 4096;

struct Lowerer {
  const CompiledStencil& cs;
  const std::vector<std::uint8_t>& is_scratch;

  LinearProgram out;
  std::string reason;

  std::vector<std::uint16_t> stack;
  std::vector<std::uint16_t> local_reg;
  /// Pinned registers hold values live to the end of the point (consts,
  /// scalars, locals, CSE'd loads, store operands); unpinned registers
  /// are pure temporaries, consumed exactly once.
  std::vector<bool> pinned;
  std::vector<std::uint16_t> free_regs;
  std::map<std::uint64_t, std::uint16_t> const_regs;  ///< keyed by raw bits
  std::map<std::int32_t, std::uint16_t> scalar_regs;
  std::map<AccessKey, std::uint16_t> load_cse;
  std::map<std::uint16_t, std::int32_t> reg_load;  ///< CSE reg -> loads[] id

  struct Pending {
    AccessKey key;
    std::uint16_t val;
  };
  std::vector<Pending> pending;  ///< statement order, like the exec buffer

  Lowerer(const CompiledStencil& cs_in,
          const std::vector<std::uint8_t>& scratch_in)
      : cs(cs_in), is_scratch(scratch_in) {}

  std::uint16_t alloc(bool pin) {
    std::uint16_t r;
    if (!pin && !free_regs.empty()) {
      r = free_regs.back();
      free_regs.pop_back();
    } else {
      r = static_cast<std::uint16_t>(out.n_regs++);
      pinned.push_back(false);
    }
    pinned[r] = pin;
    return r;
  }

  void push(std::uint16_t r) { stack.push_back(r); }
  std::uint16_t pop() {
    const std::uint16_t r = stack.back();
    stack.pop_back();
    return r;
  }

  void free_if_temp(std::uint16_t r) {
    if (!pinned[r]) free_regs.push_back(r);
  }

  void emit(NOp op, std::uint16_t a, std::uint16_t b) {
    const std::uint16_t d = alloc(/*pin=*/false);
    NInstr i;
    i.op = op;
    i.dst = d;
    i.a = a;
    i.b = b;
    out.body.push_back(i);
    push(d);
  }

  std::uint16_t const_reg_for(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    if (const auto it = const_regs.find(bits); it != const_regs.end()) {
      return it->second;
    }
    const std::uint16_t r = alloc(/*pin=*/true);
    out.setup_consts.push_back(v);
    out.const_reg.push_back(r);
    const_regs.emplace(bits, r);
    return r;
  }

  std::uint16_t scalar_reg_for(std::int32_t slot) {
    if (const auto it = scalar_regs.find(slot); it != scalar_regs.end()) {
      return it->second;
    }
    const std::uint16_t r = alloc(/*pin=*/true);
    out.setup_scalars.push_back(slot);
    out.scalar_reg.push_back(r);
    scalar_regs.emplace(slot, r);
    return r;
  }

  bool refuse(std::string why) {
    reason = std::move(why);
    return false;
  }

  /// Read one element through the pending-write buffer, statically. The
  /// result register is pinned (it may be read again via CSE). Mirrors
  /// exec_point's read_at: a pending hit forwards the stored register and
  /// touches no memory and no counters; a memory read counts once per
  /// original read op (CSE shares the register, not the count).
  bool read_access(const BcAccess& a, std::uint16_t& result) {
    const AccessKey k = key_of(a);
    if (a.scan_pending) {
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        if (it->key.array != a.array) continue;
        if (it->key.sel != a.sel) {
          // The buffered write and this read are driven by different
          // coordinate selectors: whether they alias depends on the
          // point, which only the runtime scan can decide.
          return refuse(str_cat("pending-write aliasing on array slot ",
                                a.array, " is point-dependent"));
        }
        if (it->key.off == a.off) {
          result = it->val;
          return true;  // static forward: always the same element
        }
        // Same selectors, different offsets: never the same element.
      }
      if (is_scratch[static_cast<std::size_t>(a.array)]) {
        // A memory read of a scratch array this stage also stores to can
        // observe another point's write (scratch is never snapshotted),
        // making results depend on point order. The bytecode engine's
        // row-major order defines the semantics; fall back to it.
        return refuse(str_cat("scratch array slot ", a.array,
                              " is read back after a same-stage store"));
      }
    }
    const bool scratch = is_scratch[static_cast<std::size_t>(a.array)] != 0;
    if (scratch) {
      ++out.sreads_pp;
    } else {
      ++out.greads_pp;
    }
    std::int32_t load_idx;
    if (const auto it = load_cse.find(k); it != load_cse.end()) {
      result = it->second;
      load_idx = reg_load.at(result);
    } else {
      load_idx = static_cast<std::int32_t>(out.loads.size());
      NAccess na;
      na.view = a.array;
      na.sel = a.sel;
      na.off = a.off;
      na.scratch = scratch;
      out.loads.push_back(na);
      result = alloc(/*pin=*/true);
      NInstr li;
      li.op = NOp::Load;
      li.dst = result;
      li.aux = load_idx;
      out.body.push_back(li);
      load_cse.emplace(k, result);
      reg_load.emplace(result, load_idx);
    }
    if (!scratch) out.replay_reads.push_back(load_idx);
    return true;
  }

  void unary(NOp op) {
    const std::uint16_t a = pop();
    free_if_temp(a);
    emit(op, a, 0);
  }

  void binary(NOp op) {
    const std::uint16_t b = pop();
    const std::uint16_t a = pop();
    free_if_temp(a);
    free_if_temp(b);
    emit(op, a, b);
  }

  bool add_store(const BcAccess& a, std::uint16_t v) {
    // A store that does not consume every iterator maps many points onto
    // one element; the element's final value is then defined by the
    // bytecode's row-major point order, which the native interior does
    // not preserve. Refuse; injective stores are order-free (each
    // element has exactly one writer).
    for (int iter = 3 - cs.dims; iter < 3; ++iter) {
      if (a.sel[0] != iter && a.sel[1] != iter && a.sel[2] != iter) {
        return refuse(str_cat("store on array slot ", a.array,
                              " does not address every iterator"));
      }
    }
    NStore s;
    s.acc.view = a.array;
    s.acc.sel = a.sel;
    s.acc.off = a.off;
    s.acc.scratch = is_scratch[static_cast<std::size_t>(a.array)] != 0;
    s.src = v;
    out.stores.push_back(s);
    pending.push_back({key_of(a), v});
    if (s.acc.scratch) ++out.swrites_pp;
    // External stores contribute to gwrites by committed volume, not per
    // point — accounted analytically in add_interior_counters.
    return true;
  }

  /// Scratch is never snapshotted, so a memory load that can observe a
  /// same-stage store from ANOTHER point makes results depend on point
  /// order. Safe only when the array has a single store key and every
  /// memory load of it uses that exact key: each point then reads only
  /// its own element (stores are injective), whose pre-value no other
  /// point writes.
  bool check_scratch_raw() {
    std::map<std::int32_t, std::set<AccessKey>> scratch_stores;
    for (const NStore& s : out.stores) {
      if (s.acc.scratch) {
        scratch_stores[s.acc.view].insert({s.acc.view, s.acc.sel, s.acc.off});
      }
    }
    for (const NAccess& a : out.loads) {
      if (!a.scratch) continue;
      const auto it = scratch_stores.find(a.view);
      if (it == scratch_stores.end()) continue;
      if (it->second.size() != 1 ||
          it->second.count({a.view, a.sel, a.off}) == 0) {
        return refuse(str_cat("scratch array slot ", a.view,
                              " is read and rewritten within one stage"));
      }
    }
    return true;
  }

  /// Group loads that are pure streaming-axis (z) shifts of one another:
  /// identical view and selectors, offsets equal after subtracting one
  /// common z delta from every z-driven dimension. Runs of consecutive z
  /// offsets become rotating register windows.
  void build_chains() {
    if (out.dims < 3) return;  // only 3D programs stream over z
    using GroupKey = std::tuple<std::int32_t, std::array<std::uint8_t, 3>,
                                std::array<std::int64_t, 3>>;
    std::map<GroupKey, std::vector<std::pair<std::int64_t, std::int32_t>>>
        groups;
    for (std::size_t i = 0; i < out.loads.size(); ++i) {
      const NAccess& a = out.loads[i];
      int d0 = -1;
      for (int d = 0; d < 3; ++d) {
        if (a.sel[static_cast<std::size_t>(d)] == 0) {
          d0 = d;
          break;
        }
      }
      if (d0 < 0) continue;  // value does not move with z
      const std::int64_t coord = a.off[static_cast<std::size_t>(d0)];
      std::array<std::int64_t, 3> norm = a.off;
      for (std::size_t d = 0; d < 3; ++d) {
        if (a.sel[d] == 0) norm[d] -= coord;
      }
      groups[{a.view, a.sel, norm}].emplace_back(
          coord, static_cast<std::int32_t>(i));
    }
    for (auto& [key, members] : groups) {
      std::sort(members.begin(), members.end());
      std::size_t run = 0;
      for (std::size_t i = 1; i <= members.size(); ++i) {
        const bool breaks = i == members.size() ||
                            members[i].first != members[i - 1].first + 1;
        if (!breaks) continue;
        if (i - run >= 2) {
          const auto chain_id = static_cast<std::int32_t>(out.chains.size());
          NChain ch;
          for (std::size_t p = run; p < i; ++p) {
            const std::int32_t li = members[p].second;
            out.loads[static_cast<std::size_t>(li)].chain = chain_id;
            out.loads[static_cast<std::size_t>(li)].chain_pos =
                static_cast<std::int32_t>(p - run);
            ch.members.push_back(li);
          }
          out.chains.push_back(std::move(ch));
        }
        run = i;
      }
    }
  }

  bool run() {
    stack.reserve(static_cast<std::size_t>(std::max(1, cs.max_stack)));
    local_reg.assign(static_cast<std::size_t>(std::max(1, cs.n_locals)), 0);
    for (const BcInstr& ins : cs.code) {
      switch (ins.op) {
        case BcOp::PushConst:
          push(const_reg_for(cs.consts[static_cast<std::size_t>(ins.a)]));
          break;
        case BcOp::PushScalar:
          push(scalar_reg_for(ins.a));
          break;
        case BcOp::PushLocal:
          push(local_reg[static_cast<std::size_t>(ins.a)]);
          break;
        case BcOp::Load: {
          std::uint16_t r;
          if (!read_access(cs.accesses[static_cast<std::size_t>(ins.a)], r)) {
            return false;
          }
          push(r);
          break;
        }
        case BcOp::Neg:
          unary(NOp::Neg);
          break;
        case BcOp::Sqrt:
          unary(NOp::Sqrt);
          break;
        case BcOp::Fabs:
          unary(NOp::Fabs);
          break;
        case BcOp::Exp:
          unary(NOp::Exp);
          break;
        case BcOp::Log:
          unary(NOp::Log);
          break;
        case BcOp::Add:
          binary(NOp::Add);
          break;
        case BcOp::Sub:
          binary(NOp::Sub);
          break;
        case BcOp::Mul:
          binary(NOp::Mul);
          break;
        case BcOp::Div:
          binary(NOp::Div);
          break;
        case BcOp::Min:
          binary(NOp::Min);
          break;
        case BcOp::Max:
          binary(NOp::Max);
          break;
        case BcOp::Pow:
          binary(NOp::Pow);
          break;
        case BcOp::StoreLocal: {
          const std::uint16_t v = pop();
          pinned[v] = true;  // locals may be read any number of times
          local_reg[static_cast<std::size_t>(ins.a)] = v;
          break;
        }
        case BcOp::Store: {
          const std::uint16_t v = pop();
          pinned[v] = true;
          if (!add_store(cs.accesses[static_cast<std::size_t>(ins.a)], v)) {
            return false;
          }
          break;
        }
        case BcOp::StoreAccum: {
          // `*--sp + cur`: read through the pending buffer, add in the
          // bytecode's operand order, store the sum.
          const BcAccess& a = cs.accesses[static_cast<std::size_t>(ins.a)];
          std::uint16_t cur;
          if (!read_access(a, cur)) return false;
          push(cur);
          binary(NOp::Add);
          const std::uint16_t v = pop();
          pinned[v] = true;
          if (!add_store(a, v)) return false;
          break;
        }
      }
    }
    ARTEMIS_CHECK(stack.empty());
    if (!check_scratch_raw()) return false;
    build_chains();
    out.flops_per_point = cs.flops_per_point;
    return true;
  }
};

}  // namespace

LowerResult lower_stencil(const CompiledStencil& cs,
                          const std::vector<std::uint8_t>& is_scratch) {
  LowerResult res;
  if (cs.code.size() >= kMaxCode) {
    res.reason = "statement list exceeds the virtual register budget";
    return res;
  }
  Lowerer lw(cs, is_scratch);
  lw.out.dims = cs.dims;
  if (!lw.run()) {
    res.reason = lw.reason;
    return res;
  }
  res.ok = true;
  res.prog = std::move(lw.out);
  return res;
}

}  // namespace artemis::sim::native
