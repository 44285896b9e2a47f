#pragma once

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "artemis/ir/program.hpp"

namespace artemis::ir {

/// A stencil call with formals substituted by actual array/scalar names.
/// This is the unit the code generator, profiler and executor operate on.
struct BoundStencil {
  std::string name;                 ///< callee stencil name
  const StencilDef* def = nullptr;  ///< original definition (not owned)
  std::map<std::string, std::string> binding;  ///< formal -> actual
  std::vector<Stmt> stmts;          ///< statements with actual names
  ResourceAssignments resources;    ///< keyed by actual names
  PragmaInfo pragma;
};

/// Substitute actual argument names into the callee's statements. Local
/// temporaries are prefixed with `prefix` (when non-empty) so that multiple
/// bound stencils can be fused into one statement list without collisions.
BoundStencil bind_call(const Program& prog, const StencilCall& call,
                       const std::string& prefix = "");

/// One execution step after fully expanding iterate blocks.
struct ExecStep {
  enum class Kind { Stencil, Swap } kind = Kind::Stencil;
  BoundStencil stencil;  ///< Kind::Stencil
  SwapStmt swap;         ///< Kind::Swap
};

/// Expand Program::steps into a flat execution trace (iterate blocks are
/// unrolled `iterations` times). Used by the reference interpreter.
std::vector<ExecStep> flatten_steps(const Program& prog);

/// Distinct accesses to one array within a stencil.
struct ArrayAccessInfo {
  std::string array;
  int dims = 0;  ///< declared dimensionality (1..3)
  bool read = false;
  bool written = false;
  /// Distinct read index vectors (one entry per syntactically distinct
  /// access, e.g. A[k][j][i+1] and A[k][j][i-1] are two entries).
  std::vector<std::vector<IndexExpr>> read_offsets;
  /// Distinct write (LHS) index vectors. Together with read_offsets this
  /// decides whether kernel-style execution must snapshot a read-written
  /// array (see sim::needs_snapshot).
  std::vector<std::vector<IndexExpr>> write_offsets;
  /// Per-program-iterator read radius: max |offset| over read accesses
  /// whose index uses that iterator. Indexed by iterator position.
  std::array<int, 3> radius = {0, 0, 0};
};

/// Summary of one bound stencil used throughout planning and profiling.
struct StencilInfo {
  std::map<std::string, ArrayAccessInfo> arrays;
  std::vector<std::string> inputs;   ///< read-only or read-write arrays
  std::vector<std::string> outputs;  ///< written arrays
  std::set<std::string> scalars_read;
  std::int64_t flops_per_point = 0;  ///< total FLOPs per output point
  int order = 0;                     ///< max radius over all dims/arrays
  std::array<int, 3> radius = {0, 0, 0};  ///< per-iterator halo radius
  int num_io_arrays = 0;             ///< distinct arrays touched
  std::int64_t num_statements = 0;
};

/// Analyze a bound stencil against its program (for array dimensionality).
StencilInfo analyze(const Program& prog, const BoundStencil& bound);

}  // namespace artemis::ir
