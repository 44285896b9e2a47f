#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "artemis/ir/analysis.hpp"

namespace artemis::sim {

/// --- compiled stencil execution ---------------------------------------------
///
/// The tree-walking interpreter (interp.hpp) re-resolves every name at every
/// grid point: string-keyed maps for scalars and locals, std::function
/// readers for arrays, a fresh write buffer per point. This module compiles
/// a statement list ONCE into a flat postfix bytecode program with every
/// name resolved to an integer slot — arrays to view ids with precomputed
/// strides, scalars and locals to dense slot vectors, iterator offsets
/// folded into per-access coordinate selectors — and then executes it with
/// a tight switch loop. The instruction stream is emitted in the exact
/// post-order the tree walk evaluates, so results, veto behaviour and
/// element counters are bit-identical to apply_stmts_at_point, which
/// verify::run_program_oracle walks as the semantics oracle.

enum class BcOp : std::uint8_t {
  PushConst,   ///< push consts[a]
  PushScalar,  ///< push scalars[a]
  PushLocal,   ///< push locals[a]
  Load,        ///< push array element via accesses[a]; out of bounds vetoes
  Neg,
  Add,
  Sub,
  Mul,
  Div,
  Sqrt,
  Fabs,
  Exp,
  Log,
  Min,
  Max,
  Pow,
  StoreLocal,  ///< pop into locals[a]
  Store,       ///< pop into the pending-write buffer via accesses[a]
  StoreAccum,  ///< like Store, but adds the current value (`+=` read-through)
};

struct BcInstr {
  BcOp op;
  std::int32_t a = 0;  ///< const index / slot / access id
};

/// One resolved array access. Global coordinates at point (z, y, x) are
/// c[d] = {z, y, x, 0}[sel[d]] + off[d]; sel 3 encodes a constant index
/// (lower-dimensional arrays map to trailing axes exactly as
/// access_coords does).
struct BcAccess {
  std::int32_t array = 0;                       ///< ArrayView slot
  std::array<std::uint8_t, 3> sel = {3, 3, 3};  ///< z, y, x selectors
  std::array<std::int64_t, 3> off = {0, 0, 0};
  /// An earlier statement stores to the same array: reads must scan the
  /// pending-write buffer first (same-point read-after-write semantics).
  bool scan_pending = false;
};

/// Dense name -> slot table built once per (plan, run).
class SlotMap {
 public:
  /// Idempotent: returns the existing slot on re-insertion.
  int add(const std::string& name);
  /// -1 when absent.
  int slot(const std::string& name) const;
  int size() const { return static_cast<int>(names_.size()); }
  /// Stable storage: view name pointers stay valid for the SlotMap's life.
  const std::string& name(int slot) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> index_;
};

/// A statement list compiled against slot tables. Immutable after
/// compilation; safe to execute from many threads concurrently.
struct CompiledStencil {
  std::vector<BcInstr> code;
  std::vector<double> consts;
  std::vector<BcAccess> accesses;
  int dims = 3;        ///< program iterator count (1..3)
  int n_locals = 0;    ///< dense local-slot count
  int max_stack = 0;   ///< value-stack high-water mark
  int n_stores = 0;    ///< pending-write buffer capacity per point
  /// FLOPs one computed point executes: arithmetic/intrinsic opcodes plus
  /// one per `+=` read-through, matching ir::flop_count's convention so
  /// measured FLOP totals are directly comparable to the analytic model.
  std::int64_t flops_per_point = 0;
};

/// Compile `stmts` (iterator count `dims`) against the given array and
/// scalar slot tables. Throws artemis::Error on unbound scalars or unknown
/// intrinsics — the same inputs the tree walk rejects at evaluation time.
CompiledStencil compile_stmts(const std::vector<ir::Stmt>& stmts, int dims,
                              const SlotMap& arrays, const SlotMap& scalars);

/// Where one array slot's storage lives during a run (or one block of a
/// run). For globals the window equals the logical grid; for block-local
/// scratch it is the tile expanded by the plan halo, positioned at `lo`.
struct ArrayView {
  const double* read = nullptr;  ///< snapshot, grid, or scratch storage
  double* write = nullptr;       ///< grid or scratch storage
  /// Logical grid extents: reads outside veto the point (the CUDA guard).
  std::int64_t ez = 1, ey = 1, ex = 1;
  /// Storage window: global lo corner and extents (row-major strides).
  std::int64_t lo_z = 0, lo_y = 0, lo_x = 0;
  std::int64_t wz = 1, wy = 1, wx = 1;
  std::uint8_t* written = nullptr;  ///< scratch guard-passed flags, or null
  bool scratch = false;             ///< counts as scratch (not global) traffic
  const std::string* name = nullptr;  ///< for diagnostics
  /// Byte base of this array in the counting mode's flat global address
  /// space (line-aligned, disjoint per array slot). Element (z,y,x) lives
  /// at elem_base + view_index * sizeof(double); scratch views ignore it.
  std::uint64_t elem_base = 0;
};

/// Half-open zyx box.
struct BcRegion {
  std::array<std::int64_t, 3> lo = {0, 0, 0};
  std::array<std::int64_t, 3> hi = {1, 1, 1};

  bool empty() const {
    return lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2];
  }
  std::int64_t volume() const {
    return empty() ? 0
                   : (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
  }
};

/// Element counters gathered by the compiled engine (mirrors ExecCounters'
/// element fields; plain integers so per-block totals reduce
/// deterministically in block order, without atomics).
struct BcCounters {
  std::int64_t computed = 0;
  std::int64_t skipped = 0;
  std::int64_t greads = 0;
  std::int64_t gwrites = 0;
  std::int64_t sreads = 0;
  std::int64_t swrites = 0;

  bool operator==(const BcCounters&) const = default;

  BcCounters& operator+=(const BcCounters& o) {
    computed += o.computed;
    skipped += o.skipped;
    greads += o.greads;
    gwrites += o.gwrites;
    sreads += o.sreads;
    swrites += o.swrites;
    return *this;
  }
};

/// Cache-line size of the counting mode's flat address space. Matches the
/// CacheSim default (the L2 sector granularity the model reasons in).
inline constexpr std::uint64_t kTraceLineBytes = 32;

/// Tag bit marking a write entry in a StageTrace line stream. Entries are
/// 32-bit (line ids fit easily: the flat address space would need to
/// exceed 64 GiB to overflow 31 bits — asserted when the layout is
/// assigned), which halves the counting mode's dominant memory traffic.
inline constexpr std::uint32_t kTraceWriteBit = 1u << 31;

/// What the low-overhead counting mode records for one stage of one run
/// (or one block of a run, before the deterministic block-order merge).
///
/// The line stream is the global memory traffic at cache-line granularity
/// in execution order: each entry is a line id of the flat per-array
/// address space (ArrayView::elem_base), with kTraceWriteBit set on
/// stores. Consecutive accesses to the same line on the same side
/// (read/read or write/write) are merged into one entry — the stand-in
/// for intra-warp coalescing along the unit-stride axis. Merging changes
/// request counts, never the set of lines touched.
struct StageTrace {
  BcCounters interior;  ///< accesses from guard-free interior points
  BcCounters rim;       ///< accesses from boundary-rim points
  std::vector<std::uint32_t> lines;  ///< coalesced line stream, tagged
  std::int64_t flops_per_point = 0;  ///< copied from the compiled stage

  /// Coalescing state; fresh per block so no merge spans a block boundary.
  std::uint32_t last_read = ~0u;
  std::uint32_t last_write = ~0u;

  void record(std::uint64_t byte_addr, bool is_write) {
    const auto line =
        static_cast<std::uint32_t>(byte_addr / kTraceLineBytes);
    if (is_write) {
      if (line == last_write) return;
      last_write = line;
      lines.push_back(line | kTraceWriteBit);
    } else {
      if (line == last_read) return;
      last_read = line;
      lines.push_back(line);
    }
  }

  /// Block-order merge: counters sum; the line stream concatenates with a
  /// coalescing reset at the seam (blocks model distinct thread blocks).
  StageTrace& operator+=(const StageTrace& o) {
    interior += o.interior;
    rim += o.rim;
    lines.insert(lines.end(), o.lines.begin(), o.lines.end());
    flops_per_point = o.flops_per_point;
    last_read = ~0u;
    last_write = ~0u;
    return *this;
  }
};

/// The sub-box of `region` on which every read (and every scratch write)
/// is provably inside both its logical grid and its storage window — the
/// guard-free fast path. Exposed for tests; run_compiled_region computes
/// it internally.
BcRegion interior_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const BcRegion& region);

/// Execute the compiled stencil over every point of `region`.
///
/// `drop_outside_commit` selects the write-commit semantics:
///  - true (the tiled executor): external writes outside the `commit` box
///    are dropped silently (overlapped-tiling recompute regions);
///  - false (the reference interpreter): external writes always commit and
///    must land inside the storage window (checked).
///
/// The domain is split into an interior (bounds checks provably
/// satisfied) and a boundary rim with the fully checked semantics.
///
/// `trace` enables the low-overhead counting mode: per-class (interior vs
/// rim) counters and the coalesced global line stream accumulate into it
/// while grids, veto behaviour and `counters` stay bit-identical to a
/// plain run.
void run_compiled_region(const CompiledStencil& cs,
                         const std::vector<ArrayView>& views,
                         const double* scalars, const BcRegion& region,
                         const BcRegion& commit, bool drop_outside_commit,
                         BcCounters& counters, StageTrace* trace = nullptr);

/// Fully-checked per-point execution of x-spans, exported for the native
/// tier's boundary rim: identical semantics (and, in counting mode,
/// identical record stream) to the rim spans of run_compiled_region's
/// split sweep. Holds the per-sweep scratch so rows don't reallocate;
/// not thread-safe — one RimRunner per worker.
class RimRunner {
 public:
  RimRunner(const CompiledStencil& cs, const std::vector<ArrayView>& views,
            const double* scalars, const BcRegion& commit,
            bool drop_outside_commit);
  ~RimRunner();

  /// Run [x0, x1) of row (z, y) with the checked engine, accumulating
  /// computed/skipped and element counters into `c` (and records into
  /// `trace` when counting).
  void run(std::int64_t z, std::int64_t y, std::int64_t x0, std::int64_t x1,
           BcCounters& c, StageTrace* trace);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Shared snapshot policy for kernel-style execution: must `ai` be copied
/// before the sweep so every point observes pre-kernel values? True when
/// the array is both read and written, some read is off-center (or uses a
/// constant index, or an index vector no write uses, e.g. a transpose),
/// and a read could observe another point's write. The aliasing-free
/// special case — every read and write resolves to the same canonical
/// per-point coordinate (index d = iterator d, identical offsets) and no
/// overlapped-tiling recompute is in play — skips the copy; results are
/// identical because writes commit only after the owning point's reads
/// completed.
bool needs_snapshot(const ir::ArrayAccessInfo& ai, int dims, bool recompute);

}  // namespace artemis::sim
