#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artemis/sim/bytecode.hpp"

namespace artemis::sim::native {

/// --- native SIMD interior tier ----------------------------------------------
///
/// The bytecode engine executes every interior point through a switch loop
/// and a software value stack. This tier lowers a CompiledStencil ONCE into
/// a linearized register program — stack traffic replaced by virtual
/// registers, same-point pending-write forwarding resolved statically,
/// repeated loads CSE'd, per-access flat-index strides constant-folded —
/// and executes guard-free interior boxes with runtime-dispatched SIMD
/// over the unit-stride (x) axis: 4-wide AVX2, 8-wide AVX-512F, or a
/// portable scalar loop, selected once by cpuid. Loads whose offsets
/// recur along the streaming (z) axis share a rotating register window
/// (the register-tiling idiom), so each z step issues one new load per
/// chain instead of reloading the whole stencil star.
///
/// The boundary rim, vetoing points and anything the lowering refuses
/// stay on the bytecode engine. The emitted code preserves the bytecode's
/// operation set and evaluation order exactly — no FMA contraction, lane
/// arithmetic IEEE-identical to the scalar ops — so grids, counters and
/// counting-mode traces are bit-identical to the bytecode engine.

/// Register-program opcodes. Load pulls through loads[aux]; everything
/// else is regs[dst] = op(regs[a], regs[b]).
enum class NOp : std::uint8_t {
  Load,
  Neg,
  Fabs,
  Sqrt,
  Exp,
  Log,
  Add,
  Sub,
  Mul,
  Div,
  Min,
  Max,
  Pow,
};

struct NInstr {
  NOp op = NOp::Add;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::int32_t aux = 0;  ///< loads[] index for NOp::Load
};

/// One lowered access: BcAccess with the scratch flag resolved and (for
/// loads) its streaming-axis chain membership.
struct NAccess {
  std::int32_t view = 0;
  std::array<std::uint8_t, 3> sel = {3, 3, 3};
  std::array<std::int64_t, 3> off = {0, 0, 0};
  bool scratch = false;
  std::int32_t chain = -1;    ///< chains[] index, -1 = unchained
  std::int32_t chain_pos = 0; ///< position in the chain's z-sorted window
};

struct NStore {
  NAccess acc;
  std::uint16_t src = 0;  ///< register holding the stored value
};

/// Loads identical up to consecutive streaming-axis offsets; the executor
/// keeps their values in a rotating register ring across z steps.
struct NChain {
  std::vector<std::int32_t> members;  ///< loads[] indices, z-ascending
};

/// The lowered form of one CompiledStencil. Immutable after lowering;
/// safe to execute from many threads concurrently.
struct LinearProgram {
  int dims = 3;
  int n_regs = 0;

  /// Broadcast once per box: regs[const_reg[i]] = setup_consts[i],
  /// regs[scalar_reg[i]] = scalars[setup_scalars[i]].
  std::vector<double> setup_consts;
  std::vector<std::uint16_t> const_reg;
  std::vector<std::int32_t> setup_scalars;
  std::vector<std::uint16_t> scalar_reg;

  std::vector<NInstr> body;
  std::vector<NAccess> loads;
  std::vector<NStore> stores;
  std::vector<NChain> chains;

  /// Counting-mode replay: loads[] indices of every external memory read
  /// one point performs, in bytecode execution order (CSE'd loads appear
  /// once per original read). External stores replay from stores[] in
  /// statement order, after all reads — exactly the bytecode's commit
  /// loop.
  std::vector<std::int32_t> replay_reads;

  /// Static per-point element counts (interior points never veto and
  /// pending-write forwarding is resolved at lowering time, so these are
  /// exact): counters for a box are these times its volume, plus the
  /// per-store committed volume for gwrites.
  std::int64_t greads_pp = 0;
  std::int64_t sreads_pp = 0;
  std::int64_t swrites_pp = 0;
  std::int64_t flops_per_point = 0;
};

/// Lowering outcome. !ok carries the refusal reason; the caller falls
/// back to the bytecode engine for the whole stage.
struct LowerResult {
  bool ok = false;
  std::string reason;
  LinearProgram prog;
};

/// Lower a compiled stencil. `is_scratch[slot]` marks plan-internal array
/// slots (block-local scratch at execution time). Refuses — never
/// miscompiles — when same-point pending-write aliasing cannot be
/// resolved statically (reads and earlier writes to one array with
/// different coordinate selectors may or may not hit depending on the
/// point). All canonical-index paper kernels lower.
LowerResult lower_stencil(const CompiledStencil& cs,
                          const std::vector<std::uint8_t>& is_scratch);

/// SIMD dispatch tiers, widest last.
enum class Tier { Scalar, Avx2, Avx512 };

const char* tier_name(Tier tier);

/// The tier this host executes: cpuid-detected once per process.
Tier active_tier();

/// Execute the lowered program over every point of `box` (all points must
/// be interior: in-bounds by construction, no veto possible). `views` and
/// `scalars` are the same tables run_compiled_region binds. External
/// stores honor drop-outside-commit semantics; scratch stores always land
/// and set their written flags.
using RunBoxFn = void (*)(const LinearProgram& lp, const ArrayView* views,
                          const double* scalars, const BcRegion& box,
                          const BcRegion& commit, bool drop_outside_commit);

RunBoxFn run_box(Tier tier);

/// Per-tier entry points (one translation unit each, compiled with that
/// tier's instruction-set flags; narrow tiers are plain C++).
void run_box_scalar(const LinearProgram& lp, const ArrayView* views,
                    const double* scalars, const BcRegion& box,
                    const BcRegion& commit, bool drop_outside_commit);
void run_box_avx2(const LinearProgram& lp, const ArrayView* views,
                  const double* scalars, const BcRegion& box,
                  const BcRegion& commit, bool drop_outside_commit);
void run_box_avx512(const LinearProgram& lp, const ArrayView* views,
                    const double* scalars, const BcRegion& box,
                    const BcRegion& commit, bool drop_outside_commit);

/// Counting-mode bookkeeping for a native-executed interior box: the O(1)
/// analytic form of what per-point bytecode counting would accumulate.
void add_interior_counters(const LinearProgram& lp, const BcRegion& box,
                           const BcRegion& commit, bool drop_outside_commit,
                           BcCounters& c);

/// Execute one stage over `region` with run_compiled_region's full
/// contract — identical grids, counters, and (when `trace` is non-null)
/// counting-mode line streams — using the native tier for the guard-free
/// interior and the bytecode engine for the boundary rim. `lowered` must
/// be the successful lowering of `cs`.
void run_native_region(const LinearProgram& lp, const CompiledStencil& cs,
                       const std::vector<ArrayView>& views,
                       const double* scalars, const BcRegion& region,
                       const BcRegion& commit, bool drop_outside_commit,
                       BcCounters& counters, StageTrace* trace, Tier tier);

}  // namespace artemis::sim::native
