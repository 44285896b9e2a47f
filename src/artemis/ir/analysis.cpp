#include "artemis/ir/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"

namespace artemis::ir {

namespace {

/// Rename scalar/array references according to `renames`; names absent
/// from the map are kept.
ExprPtr rename_refs(const ExprPtr& e,
                    const std::map<std::string, std::string>& renames) {
  return rewrite(e, [&renames](const ExprPtr& node) -> ExprPtr {
    if (node->kind != ExprKind::ScalarRef && node->kind != ExprKind::ArrayRef) {
      return nullptr;
    }
    auto it = renames.find(node->name);
    if (it == renames.end()) return nullptr;
    auto copy = std::make_shared<Expr>(*node);
    copy->name = it->second;
    return copy;
  });
}

}  // namespace

BoundStencil bind_call(const Program& prog, const StencilCall& call,
                       const std::string& prefix) {
  const StencilDef* def = prog.find_stencil(call.callee);
  ARTEMIS_CHECK_MSG(def != nullptr, "unknown stencil '" << call.callee << "'");
  ARTEMIS_CHECK_MSG(def->params.size() == call.args.size(),
                    "arity mismatch calling '" << call.callee << "'");

  BoundStencil out;
  out.name = call.callee;
  out.def = def;
  out.pragma = def->pragma;

  std::map<std::string, std::string> renames;
  for (std::size_t i = 0; i < def->params.size(); ++i) {
    renames[def->params[i]] = call.args[i];
    out.binding[def->params[i]] = call.args[i];
  }
  // Rename locals to avoid collisions when fusing bound stencils.
  for (const auto& st : def->stmts) {
    if (st.declares_local && !prefix.empty()) {
      renames[st.lhs_name] = prefix + st.lhs_name;
    }
  }

  for (const auto& st : def->stmts) {
    Stmt b = st;
    auto it = renames.find(st.lhs_name);
    if (it != renames.end()) b.lhs_name = it->second;
    b.rhs = rename_refs(st.rhs, renames);
    out.stmts.push_back(std::move(b));
  }

  for (const auto& [formal, space] : def->resources.spaces) {
    out.resources.spaces[out.binding.at(formal)] = space;
  }
  return out;
}

std::vector<ExecStep> flatten_steps(const Program& prog) {
  std::vector<ExecStep> out;
  std::function<void(const std::vector<Step>&)> walk =
      [&](const std::vector<Step>& steps) {
        for (const auto& step : steps) {
          switch (step.kind) {
            case Step::Kind::Call: {
              ExecStep es;
              es.kind = ExecStep::Kind::Stencil;
              es.stencil = bind_call(prog, step.call);
              out.push_back(std::move(es));
              break;
            }
            case Step::Kind::Swap: {
              ExecStep es;
              es.kind = ExecStep::Kind::Swap;
              es.swap = step.swap;
              out.push_back(std::move(es));
              break;
            }
            case Step::Kind::Iterate:
              for (std::int64_t t = 0; t < step.iterations; ++t) {
                walk(step.body);
              }
              break;
          }
        }
      };
  walk(prog.steps);
  return out;
}

StencilInfo analyze(const Program& prog, const BoundStencil& bound) {
  StencilInfo info;
  info.num_statements = static_cast<std::int64_t>(bound.stmts.size());

  std::set<std::string> locals;
  for (const auto& st : bound.stmts) {
    if (st.declares_local) locals.insert(st.lhs_name);
  }

  auto array_info = [&](const std::string& name) -> ArrayAccessInfo& {
    auto [it, inserted] = info.arrays.try_emplace(name);
    if (inserted) {
      it->second.array = name;
      const ArrayDecl* decl = prog.find_array(name);
      it->second.dims = decl ? static_cast<int>(decl->dims.size()) : 0;
    }
    return it->second;
  };

  for (const auto& st : bound.stmts) {
    info.flops_per_point += flop_count(*st.rhs);
    if (st.accumulate) ++info.flops_per_point;  // the += add
    if (!st.declares_local) {
      auto& ai = array_info(st.lhs_name);
      ai.written = true;
      if (std::find(ai.write_offsets.begin(), ai.write_offsets.end(),
                    st.lhs_indices) == ai.write_offsets.end()) {
        ai.write_offsets.push_back(st.lhs_indices);
      }
    }
    visit(*st.rhs, [&](const Expr& e) {
      if (e.kind == ExprKind::ArrayRef) {
        auto& ai = array_info(e.name);
        ai.read = true;
        if (std::find(ai.read_offsets.begin(), ai.read_offsets.end(),
                      e.indices) == ai.read_offsets.end()) {
          ai.read_offsets.push_back(e.indices);
        }
        for (const auto& ix : e.indices) {
          if (!ix.is_const()) {
            const auto dim = static_cast<std::size_t>(ix.iter);
            ARTEMIS_CHECK(dim < 3);
            ai.radius[dim] = std::max(
                ai.radius[dim], static_cast<int>(std::abs(ix.offset)));
          }
        }
      } else if (e.kind == ExprKind::ScalarRef && !locals.count(e.name)) {
        info.scalars_read.insert(e.name);
      }
    });
  }

  for (const auto& [name, ai] : info.arrays) {
    if (ai.written) info.outputs.push_back(name);
    if (ai.read) info.inputs.push_back(name);
    for (std::size_t d = 0; d < 3; ++d) {
      info.radius[d] = std::max(info.radius[d], ai.radius[d]);
    }
  }
  info.order = *std::max_element(info.radius.begin(), info.radius.end());
  info.num_io_arrays = static_cast<int>(info.arrays.size());
  return info;
}

}  // namespace artemis::ir
