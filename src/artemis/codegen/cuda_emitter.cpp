#include "artemis/codegen/cuda_emitter.hpp"

#include <algorithm>
#include <cctype>
#include <set>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"
#include "artemis/transform/retime.hpp"

namespace artemis::codegen {

namespace {

/// Iterator spelling per axis for a plan (axis 0 = innermost).
const char* kIterNames[3] = {"i", "j", "k"};
const char* kDimNames[3] = {"N", "M", "L"};

std::string linear_index(const ir::Program& prog, const std::string& array,
                         const std::vector<ir::IndexExpr>& indices,
                         const std::vector<std::string>& iters) {
  const ir::ArrayDecl* decl = prog.find_array(array);
  std::vector<std::string> dims;
  if (decl) {
    dims = decl->dims;
  }
  // Build ((z)*M + y)*N + x style flattened index.
  std::string out;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    const auto& ix = indices[d];
    std::string term;
    if (ix.is_const()) {
      term = std::to_string(ix.offset);
    } else {
      term = iters[static_cast<std::size_t>(ix.iter)];
      if (ix.offset > 0) term += "+" + std::to_string(ix.offset);
      if (ix.offset < 0) term += std::to_string(ix.offset);
    }
    if (d == 0) {
      out = "(" + term + ")";
    } else {
      const std::string extent =
          decl && d < dims.size() ? dims[d] : std::string("N");
      out = "(" + out + "*" + extent + " + (" + term + "))";
    }
  }
  return out;
}

/// `name` as a C identifier: every character outside [A-Za-z0-9_] becomes
/// '_' (a fused plan's name joins its stage names with '+').
std::string identifier(std::string name) {
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

/// Context for expression emission.
struct EmitCtx {
  const ir::Program* prog = nullptr;
  const KernelPlan* plan = nullptr;
  bool streaming = false;
  int stream_iter = -1;  ///< program-iterator index of the swept axis
};

std::string emit_expr(const EmitCtx& ctx, const ir::Expr& e);

std::string emit_array_ref(const EmitCtx& ctx, const ir::Expr& e) {
  const auto& plan = *ctx.plan;
  const auto it = plan.placement.find(e.name);
  const ir::MemSpace space =
      it != plan.placement.end() ? it->second.space : ir::MemSpace::Global;

  if (space == ir::MemSpace::Shared || space == ir::MemSpace::Reg) {
    // Streamed arrays: the center plane lives in shared memory; the +/-
    // planes live in registers (Listing 2 naming).
    if (ctx.streaming && ctx.stream_iter >= 0 &&
        static_cast<int>(e.indices.size()) == plan.dims) {
      const auto& sidx =
          e.indices[static_cast<std::size_t>(ctx.stream_iter)];
      const std::int64_t off = sidx.is_const() ? 0 : sidx.offset;
      const auto eh = plan.eff_halo.count(e.name)
                          ? plan.eff_halo.at(e.name)
                          : std::array<int, 3>{0, 0, 0};
      std::string tail;
      for (std::size_t d = 0; d < e.indices.size(); ++d) {
        if (static_cast<int>(d) == ctx.stream_iter) continue;
        const auto& ix = e.indices[d];
        std::string term = ctx.prog->iterators[static_cast<std::size_t>(
            ix.iter)];
        const int axis = plan.dims - 1 - ix.iter;
        term += d + 1 == e.indices.size() ? "-i0" : "-j0";
        // Buffer origin is (tile origin - halo): shift by halo + offset.
        const std::int64_t shift =
            ix.offset + eh[static_cast<std::size_t>(axis)];
        if (shift > 0) term += "+" + std::to_string(shift);
        if (shift < 0) term += std::to_string(shift);
        tail += "[" + term + "]";
      }
      if (off == 0) return str_cat(e.name, "_shm_c0", tail);
      if (off < 0) return str_cat(e.name, "_reg_m", -off);
      return str_cat(e.name, "_reg_p", off);
    }
    // Spatial shared tile: local coordinates, shifted by the halo since
    // the buffer origin is (tile origin - halo).
    const auto eh = plan.eff_halo.count(e.name)
                        ? plan.eff_halo.at(e.name)
                        : std::array<int, 3>{0, 0, 0};
    std::string tail;
    for (std::size_t d = 0; d < e.indices.size(); ++d) {
      const auto& ix = e.indices[d];
      std::string term =
          ctx.prog->iterators[static_cast<std::size_t>(ix.iter)];
      const int axis = plan.dims - 1 - ix.iter;
      term += str_cat("-", kIterNames[axis], "0");
      const std::int64_t shift =
          ix.offset + eh[static_cast<std::size_t>(axis)];
      if (shift > 0) term += "+" + std::to_string(shift);
      if (shift < 0) term += std::to_string(shift);
      tail += "[" + term + "]";
    }
    return str_cat(e.name, "_shm", tail);
  }
  return str_cat(e.name, "[",
                 linear_index(*ctx.prog, e.name, e.indices,
                              ctx.prog->iterators),
                 "]");
}

std::string emit_expr(const EmitCtx& ctx, const ir::Expr& e) {
  switch (e.kind) {
    case ir::ExprKind::Number: {
      std::string s = format_double(e.number, 17);
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ir::ExprKind::ScalarRef:
      return e.name;
    case ir::ExprKind::ArrayRef:
      return emit_array_ref(ctx, e);
    case ir::ExprKind::Unary:
      return "-(" + emit_expr(ctx, *e.args[0]) + ")";
    case ir::ExprKind::Binary: {
      const std::string lhs = emit_expr(ctx, *e.args[0]);
      const std::string rhs = emit_expr(ctx, *e.args[1]);
      const bool parens = e.bop == ir::BinOp::Mul || e.bop == ir::BinOp::Div;
      if (parens) {
        return "(" + lhs + ") " + ir::bin_op_token(e.bop) + " (" + rhs + ")";
      }
      return lhs + " " + ir::bin_op_token(e.bop) + " " + rhs;
    }
    case ir::ExprKind::Call: {
      std::vector<std::string> args;
      for (const auto& a : e.args) args.push_back(emit_expr(ctx, *a));
      const std::string fn = (e.name == "min" || e.name == "max")
                                 ? "f" + e.name
                                 : e.name;
      return fn + "(" + join(args, ", ") + ")";
    }
  }
  return "/*?*/";
}

std::string guard_condition(const KernelPlan& plan) {
  std::vector<std::string> conds;
  for (int axis = plan.dims - 1; axis >= 0; --axis) {
    const auto a = static_cast<std::size_t>(axis);
    const char* it = kIterNames[axis];
    const char* dim = kDimNames[axis];
    conds.push_back(str_cat(it, " >= ", plan.radius[a], " && ", it, " < ",
                            dim, " - ", plan.radius[a]));
  }
  return join(conds, " && ");
}

/// Parameter list of the kernel: pointers for arrays, doubles for scalars,
/// ints for extents.
std::string kernel_params(const ir::Program& /*prog*/, const KernelPlan& plan) {
  std::vector<std::string> params;
  for (const auto& [name, pl] : plan.placement) {
    (void)pl;
    const bool written = plan.info.arrays.at(name).written;
    params.push_back(str_cat(written ? "double* __restrict__ "
                                     : "const double* __restrict__ ",
                             name));
  }
  for (const auto& s : plan.info.scalars_read) {
    params.push_back("double " + s);
  }
  for (int axis = plan.dims - 1; axis >= 0; --axis) {
    params.push_back(str_cat("int ", kDimNames[axis]));
  }
  return join(params, ", ");
}

void emit_statements(const EmitCtx& ctx, const KernelPlan& plan,
                     std::string& out, int indent_sp) {
  const std::string pad(static_cast<std::size_t>(indent_sp), ' ');
  const int stream_iter =
      ctx.streaming ? plan.dims - 1 - plan.config.stream_axis : -1;
  for (const auto& stage : plan.stages) {
    std::vector<ir::Stmt> stmts = stage.stmts;
    if (plan.retimed) {
      stmts = transform::try_retime(stage.stmts, stream_iter).stmts;
    }
    for (const auto& st : stmts) {
      if (st.declares_local) {
        out += str_cat(pad, "double ", st.lhs_name, " = ",
                       emit_expr(ctx, *st.rhs), ";\n");
        continue;
      }
      const std::string lhs = str_cat(
          st.lhs_name, "[",
          linear_index(*ctx.prog, st.lhs_name, st.lhs_indices,
                       ctx.prog->iterators),
          "]");
      out += str_cat(pad, lhs, st.accumulate ? " += " : " = ",
                     emit_expr(ctx, *st.rhs), ";\n");
    }
  }
}

std::string emit_spatial_kernel(const ir::Program& prog,
                                const KernelPlan& plan) {
  EmitCtx ctx{&prog, &plan, /*streaming=*/false, -1};
  const auto& cfg = plan.config;
  std::string k;
  k += str_cat("__global__ void ", identifier(plan.name), "_kernel(",
               kernel_params(prog, plan), ") {\n");
  // Block origin and thread coordinates.
  for (int axis = 0; axis < plan.dims; ++axis) {
    const char* it = kIterNames[axis];
    const char* bdim = axis == 0 ? "x" : (axis == 1 ? "y" : "z");
    k += str_cat("  const int ", it, "0 = blockIdx.", bdim, " * ",
                 plan.tile_extent(axis), ";\n");
    k += str_cat("  const int ", it, " = ", it, "0 + threadIdx.", bdim,
                 cfg.unroll[static_cast<std::size_t>(axis)] > 1
                     ? str_cat(" * ", cfg.unroll[static_cast<std::size_t>(
                                          axis)])
                     : "",
                 ";\n");
  }
  // Shared tiles.
  bool any_shared = false;
  for (const auto& [name, pl] : plan.placement) {
    if (pl.space != ir::MemSpace::Shared) continue;
    if (std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                  name) != plan.internal_arrays.end()) {
      continue;  // fused intermediates get their own buffers below
    }
    any_shared = true;
    const auto eh = plan.eff_halo.count(name)
                        ? plan.eff_halo.at(name)
                        : std::array<int, 3>{0, 0, 0};
    std::string dims;
    for (int axis = plan.dims - 1; axis >= 0; --axis) {
      dims += str_cat("[",
                      plan.tile_extent(axis) +
                          2 * eh[static_cast<std::size_t>(axis)],
                      "]");
    }
    k += str_cat("  __shared__ double ", name, "_shm", dims, ";\n");
  }
  if (any_shared) {
    k += "  // cooperative tile load: threads stride over tile + halo\n";
    for (const auto& [name, pl] : plan.placement) {
      if (pl.space != ir::MemSpace::Shared) continue;
      if (std::find(plan.internal_arrays.begin(), plan.internal_arrays.end(),
                    name) != plan.internal_arrays.end()) {
        continue;
      }
      const auto eh = plan.eff_halo.count(name)
                          ? plan.eff_halo.at(name)
                          : std::array<int, 3>{0, 0, 0};
      std::string loops, idx_sh, idx_g, close;
      int depth = 1;
      for (int axis = plan.dims - 1; axis >= 0; --axis) {
        const char* it = kIterNames[axis];
        const std::int64_t ext =
            plan.tile_extent(axis) + 2 * eh[static_cast<std::size_t>(axis)];
        const char* bdim = axis == 0 ? "x" : (axis == 1 ? "y" : "z");
        loops += str_cat(std::string(static_cast<std::size_t>(depth) * 2,
                                     ' '),
                         "for (int l", it, " = threadIdx.", bdim, "; l", it,
                         " < ", ext, "; l", it, " += blockDim.", bdim,
                         ") {\n");
        idx_sh += str_cat("[l", it, "]");
        close = std::string(static_cast<std::size_t>(depth) * 2, ' ') +
                "}\n" + close;
        ++depth;
      }
      // Global index: clamp(origin - halo + l, 0, DIM-1) per axis.
      std::string gidx;
      for (int axis = plan.dims - 1; axis >= 0; --axis) {
        const char* it = kIterNames[axis];
        const std::string term =
            str_cat("min(max(", it, "0 - ",
                    eh[static_cast<std::size_t>(axis)], " + l", it,
                    ", 0), ", kDimNames[axis], "-1)");
        gidx = gidx.empty()
                   ? "(" + term + ")"
                   : str_cat("(", gidx, "*", kDimNames[axis], " + ", term,
                             ")");
      }
      k += loops;
      k += str_cat(std::string(static_cast<std::size_t>(depth) * 2, ' '),
                   name, "_shm", idx_sh, " = ", name, "[", gidx, "];\n");
      k += close;
    }
    k += "  __syncthreads();\n";
  }
  k += str_cat("  if (", guard_condition(plan), ") {\n");
  // Unroll loops.
  int depth = 2;
  for (int axis = plan.dims - 1; axis >= 0; --axis) {
    const int u = cfg.unroll[static_cast<std::size_t>(axis)];
    if (u <= 1) continue;
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    k += str_cat(pad, "#pragma unroll\n", pad, "for (int u", kIterNames[axis],
                 " = 0; u", kIterNames[axis], " < ", u, "; ++u",
                 kIterNames[axis],
                 cfg.unroll_strategy == UnrollStrategy::Blocked
                     ? ") {  // blocked distribution\n"
                     : ") {  // cyclic distribution\n");
    ++depth;
  }
  emit_statements(ctx, plan, k, depth * 2);
  for (int axis = 0; axis < plan.dims; ++axis) {
    if (cfg.unroll[static_cast<std::size_t>(axis)] > 1) {
      --depth;
      k += std::string(static_cast<std::size_t>(depth) * 2, ' ') + "}\n";
    }
  }
  k += "  }\n}\n";
  return k;
}

std::string emit_streaming_kernel(const ir::Program& prog,
                                  const KernelPlan& plan) {
  const int stream_iter = plan.dims - 1 - plan.config.stream_axis;
  EmitCtx ctx{&prog, &plan, /*streaming=*/true, stream_iter};
  const auto& cfg = plan.config;
  const char* sweep_it = prog.iterators[static_cast<std::size_t>(
                                            stream_iter)]
                             .c_str();
  const char* sweep_dim = kDimNames[plan.dims - 1];

  std::string k;
  k += str_cat("__global__ void ", identifier(plan.name), "_kernel(",
               kernel_params(prog, plan), ") {\n");
  for (int axis = 0; axis < plan.dims - 1; ++axis) {
    const char* it = kIterNames[axis];
    const char* bdim = axis == 0 ? "x" : "y";
    k += str_cat("  const int ", it, "0 = blockIdx.", bdim, " * ",
                 plan.tile_extent(axis), ";\n");
    k += str_cat("  const int ", it, " = ", it, "0 + threadIdx.", bdim,
                 ";\n");
  }
  if (cfg.tiling == TilingScheme::StreamConcurrent) {
    k += str_cat("  const int ", sweep_it, "_lo = blockIdx.z * ",
                 cfg.stream_chunk, ";\n  const int ", sweep_it,
                 "_hi = min(", sweep_it, "_lo + ", cfg.stream_chunk, ", ",
                 sweep_dim, ");\n");
  }

  // Plane buffers and register planes (Listing 2).
  const std::int64_t rz = plan.radius[static_cast<std::size_t>(plan.dims - 1)];
  for (const auto& [name, pl] : plan.placement) {
    if (pl.space != ir::MemSpace::Shared && pl.space != ir::MemSpace::Reg) {
      continue;
    }
    const auto eh = plan.eff_halo.count(name)
                        ? plan.eff_halo.at(name)
                        : std::array<int, 3>{0, 0, 0};
    if (pl.space == ir::MemSpace::Shared) {
      std::string dims;
      for (int axis = plan.dims - 2; axis >= 0; --axis) {
        dims += str_cat("[", plan.tile_extent(axis) +
                                 2 * eh[static_cast<std::size_t>(axis)],
                        "]");
      }
      k += str_cat("  __shared__ double ", name, "_shm_c0", dims, ";\n");
    }
    if (!plan.retimed) {
      const int arz = eh[static_cast<std::size_t>(plan.dims - 1)];
      for (int o = 1; o <= arz; ++o) {
        k += str_cat("  double ", name, "_reg_m", o, ", ", name, "_reg_p",
                     o, ";\n");
      }
      if (cfg.prefetch && arz > 0) {
        k += str_cat("  double ", name, "_pref;  // prefetch register\n");
      }
    }
  }
  if (plan.retimed) {
    for (const auto& out : plan.info.outputs) {
      k += str_cat("  double ", out, "_acc[", 2 * rz + 1,
                   "];  // retimed accumulators\n");
    }
  }

  // Prologue: fill the shared center plane and the +/- register planes
  // for the first sweep position (Listing 2 lines 1-3).
  for (const auto& [name, pl] : plan.placement) {
    if (pl.space != ir::MemSpace::Shared && pl.space != ir::MemSpace::Reg) {
      continue;
    }
    const auto eh = plan.eff_halo.count(name)
                        ? plan.eff_halo.at(name)
                        : std::array<int, 3>{0, 0, 0};
    const int arz = plan.retimed
                        ? 0
                        : eh[static_cast<std::size_t>(plan.dims - 1)];
    if (pl.space == ir::MemSpace::Shared) {
      k += str_cat("  ", name, "_shm_c0[j-j0+", eh[1], "][i-i0+", eh[0],
                   "] = ", name, "[load_index(", rz, ", j, i)];\n");
    }
    for (int o = 1; o <= arz; ++o) {
      k += str_cat("  ", name, "_reg_m", o, " = ", name, "[load_index(",
                   rz, " - ", o, ", j, i)];\n");
      k += str_cat("  ", name, "_reg_p", o, " = ", name, "[load_index(",
                   rz, " + ", o, ", j, i)];\n");
    }
  }
  if (cfg.tiling == TilingScheme::StreamConcurrent) {
    k += str_cat("  for (int ", sweep_it, " = ", sweep_it, "_lo; ", sweep_it,
                 " < ", sweep_it, "_hi; ++", sweep_it, ") {\n");
  } else {
    k += str_cat("  for (int ", sweep_it, " = ", rz, "; ", sweep_it, " < ",
                 sweep_dim, " - ", rz, "; ++", sweep_it, ") {\n");
  }
  k += "    __syncthreads();\n";
  if (cfg.prefetch) {
    k += str_cat("    // prefetch next plane while computing this one\n",
                 "    issue_prefetch_loads(", sweep_it, " + ", rz + 1,
                 ");\n");
  }
  k += str_cat("    if (", guard_condition(plan), ") {\n");
  emit_statements(ctx, plan, k, 6);
  k += "    }\n    __syncthreads();\n";
  k += "    // rotate register planes and refill the shared plane\n";
  for (const auto& [name, pl] : plan.placement) {
    if (pl.space != ir::MemSpace::Shared || plan.retimed) continue;
    const auto eh = plan.eff_halo.count(name)
                        ? plan.eff_halo.at(name)
                        : std::array<int, 3>{0, 0, 0};
    if (eh[static_cast<std::size_t>(plan.dims - 1)] == 0) continue;
    const std::string ctr =
        str_cat("[j-j0+", eh[1], "][i-i0+", eh[0], "]");
    k += str_cat("    ", name, "_reg_m1 = ", name, "_shm_c0", ctr,
                 ";\n    ", name, "_shm_c0", ctr, " = ",
                 name, "_reg_p1;\n    ", name, "_reg_p1 = ",
                 cfg.prefetch ? str_cat(name, "_pref")
                              : str_cat(name, "[load_index(", sweep_it,
                                        " + ", rz + 1, ")]"),
                 ";\n");
  }
  k += "  }\n}\n";
  return k;
}

}  // namespace

std::string CudaSource::full() const {
  return "// generated by ARTEMIS\n#include <cuda_runtime.h>\n#include "
         "<math.h>\n\n" +
         kernel + "\n" + host;
}

CudaSource emit_cuda(const ir::Program& prog, const KernelPlan& plan) {
  CudaSource src;
  src.kernel = plan.config.tiling == TilingScheme::Spatial3D
                   ? emit_spatial_kernel(prog, plan)
                   : emit_streaming_kernel(prog, plan);

  // Host launcher.
  std::string h;
  h += str_cat("void launch_", identifier(plan.name),
               "(/* host pointers */) {\n");
  for (const auto& name : prog.copyin) {
    if (prog.find_array(name)) {
      h += str_cat("  cudaMemcpy(d_", name, ", h_", name,
                   ", bytes_of(", name, "), cudaMemcpyHostToDevice);\n");
    }
  }
  std::int64_t gx = 1, gy = 1, gz = 1;
  {
    auto ceil_div = [](std::int64_t a, std::int64_t b) {
      return (a + b - 1) / b;
    };
    gx = ceil_div(plan.domain.x, plan.tile_extent(0));
    if (plan.dims >= 2) gy = ceil_div(plan.domain.y, plan.tile_extent(1));
    if (plan.dims >= 3) {
      if (plan.config.tiling == TilingScheme::StreamSerial) {
        gz = 1;
      } else if (plan.config.tiling == TilingScheme::StreamConcurrent) {
        gz = ceil_div(plan.domain.z, plan.config.stream_chunk);
      } else {
        gz = ceil_div(plan.domain.z, plan.tile_extent(2));
      }
    }
  }
  h += str_cat("  dim3 grid(", gx, ", ", gy, ", ", gz, ");\n");
  h += str_cat("  dim3 block(", plan.config.block[0], ", ",
               plan.config.block[1], ", ",
               plan.config.tiling == TilingScheme::Spatial3D
                   ? plan.config.block[2]
                   : 1,
               ");\n");
  std::vector<std::string> args;
  for (const auto& [name, pl] : plan.placement) {
    (void)pl;
    args.push_back("d_" + name);
  }
  for (const auto& s : plan.info.scalars_read) args.push_back(s);
  for (int axis = plan.dims - 1; axis >= 0; --axis) {
    args.push_back(kDimNames[axis]);
  }
  h += str_cat("  ", identifier(plan.name), "_kernel<<<grid, block>>>(",
               join(args, ", "), ");\n");
  for (const auto& name : prog.copyout) {
    h += str_cat("  cudaMemcpy(h_", name, ", d_", name, ", bytes_of(", name,
                 "), cudaMemcpyDeviceToHost);\n");
  }
  h += "}\n";
  src.host = h;
  return src;
}

}  // namespace artemis::codegen
