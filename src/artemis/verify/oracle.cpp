#include "artemis/verify/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/sim/interp.hpp"
#include "artemis/sim/reference.hpp"

namespace artemis::verify {

using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::TilingScheme;

namespace {

void add_counters(sim::ExecCounters& a, const sim::ExecCounters& b) {
  a.computed_points += b.computed_points;
  a.skipped_points += b.skipped_points;
  a.global_read_elems += b.global_read_elems;
  a.global_write_elems += b.global_write_elems;
  a.scratch_read_elems += b.scratch_read_elems;
  a.scratch_write_elems += b.scratch_write_elems;
  a.blocks += b.blocks;
}

}  // namespace

RunResult run_program_plans(const ir::Program& prog, const KernelConfig& cfg,
                            bool fuse, std::uint64_t seed,
                            const sim::ExecOptions& opts, bool counting) {
  const auto dev = gpumodel::p100();
  RunResult r{sim::GridSet::from_program(prog, seed), {}, {}, {}};

  const auto run_plan = [&](const KernelPlan& plan) {
    sim::ExecOptions o = opts;
    if (counting) o.trace = &r.traces.emplace_back();
    add_counters(r.totals, sim::execute_plan(plan, r.gs, o));
    for (const auto& name : plan.internal_arrays) {
      if (std::find(plan.materialized_internals.begin(),
                    plan.materialized_internals.end(),
                    name) == plan.materialized_internals.end()) {
        r.scratch_only.insert(name);
      }
    }
  };
  if (fuse) {
    std::vector<ir::BoundStencil> stages;
    int idx = 0;
    for (const auto& step : prog.steps) {
      ARTEMIS_CHECK(step.kind == ir::Step::Kind::Call);
      stages.push_back(
          ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
    }
    run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
  } else {
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind == ir::ExecStep::Kind::Swap) {
        r.gs.swap(step.swap.a, step.swap.b);
        continue;
      }
      std::vector<ir::BoundStencil> stages = {step.stencil};
      run_plan(codegen::build_plan(prog, std::move(stages), cfg, dev, {}));
    }
  }
  return r;
}

sim::ExecCounters run_program_oracle(const ir::Program& prog,
                                     sim::GridSet& gs,
                                     const std::set<std::string>& uncounted) {
  const int dims = static_cast<int>(prog.iterators.size());
  sim::ExecCounters c;
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Swap) {
      gs.swap(step.swap.a, step.swap.b);
      continue;
    }
    const ir::BoundStencil& bound = step.stencil;
    const ir::StencilInfo info = ir::analyze(prog, bound);
    ARTEMIS_CHECK_MSG(!info.outputs.empty(),
                      "stencil '" << bound.name << "' writes nothing");

    // Kernel semantics: no point observes another point's write.
    std::map<std::string, Grid3D> snapshots;
    for (const auto& [name, ai] : info.arrays) {
      if (sim::needs_snapshot(ai, dims, /*recompute=*/false)) {
        snapshots.emplace(name, gs.grid(name));
      }
    }
    std::map<std::string, double> scalars;
    for (const auto& name : info.scalars_read) scalars[name] = gs.scalar(name);

    const sim::ArrayReader reader =
        [&](const std::string& name, std::int64_t z, std::int64_t y,
            std::int64_t x) -> std::optional<double> {
      const auto snap = snapshots.find(name);
      const Grid3D& g = snap != snapshots.end() ? snap->second : gs.grid(name);
      if (!g.in_bounds(z, y, x)) return std::nullopt;
      ++c.global_read_elems;
      return g.at(z, y, x);
    };
    const sim::ArrayWriter writer = [&](const std::string& name,
                                        std::int64_t z, std::int64_t y,
                                        std::int64_t x, double v) {
      gs.grid(name).at(z, y, x) = v;
      if (uncounted.count(name) == 0) ++c.global_write_elems;
    };

    const Extents dom = gs.grid(info.outputs.front()).extents();
    std::vector<std::int64_t> itv;
    for (std::int64_t z = 0; z < dom.z; ++z) {
      for (std::int64_t y = 0; y < dom.y; ++y) {
        for (std::int64_t x = 0; x < dom.x; ++x) {
          const std::array<std::int64_t, 3> zyx = {z, y, x};
          itv.assign(zyx.end() - dims, zyx.end());
          if (sim::apply_stmts_at_point(bound.stmts, scalars, itv, reader,
                                        writer)) {
            ++c.computed_points;
          } else {
            ++c.skipped_points;
          }
        }
      }
    }
  }
  return c;
}

std::string grids_diff(const sim::GridSet& a, const sim::GridSet& b,
                       const std::set<std::string>& skip) {
  for (const auto& [name, ga] : a.grids()) {
    if (skip.count(name)) continue;
    if (!b.has_grid(name)) {
      return str_cat("grid '", name, "' missing from second set");
    }
    const Grid3D& gb = b.grid(name);
    if (!(ga->extents() == gb.extents())) {
      return str_cat("grid '", name, "' extents differ");
    }
    if (std::memcmp(ga->raw().data(), gb.raw().data(),
                    ga->raw().size() * sizeof(double)) != 0) {
      // Find the first differing element for the failure report.
      const auto& e = ga->extents();
      for (std::int64_t z = 0; z < e.z; ++z) {
        for (std::int64_t y = 0; y < e.y; ++y) {
          for (std::int64_t x = 0; x < e.x; ++x) {
            const double va = ga->at(z, y, x);
            const double vb = gb.at(z, y, x);
            if (std::memcmp(&va, &vb, sizeof(double)) != 0) {
              return str_cat("grid '", name, "' differs at (", z, ",", y, ",",
                             x, "): ", format_double(va, 17), " vs ",
                             format_double(vb, 17));
            }
          }
        }
      }
      return str_cat("grid '", name, "' bytes differ");
    }
  }
  return {};
}

std::string counters_diff(const sim::ExecCounters& a,
                          const sim::ExecCounters& b) {
  if (a.computed_points == b.computed_points &&
      a.skipped_points == b.skipped_points &&
      a.global_read_elems == b.global_read_elems &&
      a.global_write_elems == b.global_write_elems &&
      a.scratch_read_elems == b.scratch_read_elems &&
      a.scratch_write_elems == b.scratch_write_elems &&
      a.blocks == b.blocks) {
    return {};
  }
  return str_cat("counters differ: computed ", a.computed_points, "/",
                 b.computed_points, " skipped ", a.skipped_points, "/",
                 b.skipped_points, " greads ", a.global_read_elems, "/",
                 b.global_read_elems, " gwrites ", a.global_write_elems, "/",
                 b.global_write_elems, " sreads ", a.scratch_read_elems, "/",
                 b.scratch_read_elems, " swrites ", a.scratch_write_elems,
                 "/", b.scratch_write_elems, " blocks ", a.blocks, "/",
                 b.blocks);
}

namespace {

/// "" when two counting runs of the same plans recorded the same
/// per-stage line streams, interior/rim counters and write-backs.
std::string traces_diff(const std::vector<sim::PlanTrace>& a,
                        const std::vector<sim::PlanTrace>& b) {
  const auto same = [](const sim::StageTrace& x, const sim::StageTrace& y) {
    return x.lines == y.lines && x.interior == y.interior && x.rim == y.rim;
  };
  for (std::size_t p = 0; p < a.size(); ++p) {
    for (std::size_t s = 0; s < a[p].stages.size(); ++s) {
      if (!same(a[p].stages[s], b[p].stages[s])) {
        return str_cat("plan ", p, " stage ", s, " differs");
      }
    }
    if (!same(a[p].writeback, b[p].writeback)) {
      return str_cat("plan ", p, " write-back differs");
    }
  }
  return {};
}

}  // namespace

std::string engines_diff(const ir::Program& prog, const KernelConfig& cfg,
                         bool fuse, std::uint64_t seed) {
  const auto run = [&](const sim::ExecOptions& opts, bool counting = false) {
    return run_program_plans(prog, cfg, fuse, seed, opts, counting);
  };
  const RunResult first = run({.jobs = 1});

  sim::GridSet want = sim::GridSet::from_program(prog, seed);
  const sim::ExecCounters oracle =
      run_program_oracle(prog, want, first.scratch_only);
  sim::GridSet ref = sim::GridSet::from_program(prog, seed);
  sim::run_program_reference(prog, ref);
  if (std::string d = grids_diff(want, ref); !d.empty()) {
    return str_cat("oracle vs reference: ", d);
  }

  // Per-call plans compute each point once, as the oracle does. A fused
  // plan recomputes halo points and keeps internals in scratch, so only
  // its global writes carry over; the rest must match the first run.
  sim::ExecCounters expect = oracle;
  if (fuse) {
    expect = first.totals;
    expect.global_write_elems = oracle.global_write_elems;
  }
  expect.blocks = first.totals.blocks;  // plan geometry, not semantics
  const auto check = [&](const RunResult& got,
                         const std::string& label) -> std::string {
    if (std::string d = grids_diff(want, got.gs, got.scratch_only);
        !d.empty()) {
      return str_cat("oracle vs ", label, ": ", d);
    }
    if (std::string d = counters_diff(expect, got.totals); !d.empty()) {
      return str_cat("oracle vs ", label, ": ", d);
    }
    return {};
  };

  // The native engine keeps the source evaluation order and never
  // fuses, so both engines land bit for bit on the oracle at every job
  // count.
  if (std::string d = check(first, "bytecode jobs=1"); !d.empty()) return d;
  for (const auto engine : {sim::SimEngine::Bytecode, sim::SimEngine::Native}) {
    for (const int jobs : {1, 2, 4}) {
      if (engine == sim::SimEngine::Bytecode && jobs == 1) continue;
      const std::string label =
          str_cat(sim::engine_name(engine), " jobs=", jobs);
      if (std::string d = check(run({.jobs = jobs, .engine = engine}), label);
          !d.empty()) {
        return d;
      }
    }
  }
  // Counting traces hold an entry per coalesced global access; on a
  // production-sized domain that is gigabytes for little extra coverage
  // (grids and counters above already ran at every job count), so they
  // are compared on small domains only — which the fuzz sweep and the
  // test suite always use.
  constexpr std::int64_t kTracePointLimit = 1 << 16;
  if (oracle.computed_points > kTracePointLimit) return {};
  const RunResult ta = run({.jobs = 1}, /*counting=*/true);
  if (std::string d = check(ta, "counting bytecode jobs=1"); !d.empty()) {
    return d;
  }
  const RunResult tb =
      run({.jobs = 4, .engine = sim::SimEngine::Native}, /*counting=*/true);
  if (std::string d = check(tb, "counting native jobs=4"); !d.empty()) {
    return d;
  }
  if (std::string d = traces_diff(ta.traces, tb.traces); !d.empty()) {
    return str_cat("counting traces, bytecode jobs=1 vs native jobs=4: ", d);
  }
  return {};
}

KernelConfig random_config(Rng& rng, int dims) {
  KernelConfig cfg;
  const std::int64_t roll = rng.uniform_int(0, 2);
  if (dims >= 2 && roll == 1) {
    cfg.tiling = TilingScheme::StreamSerial;
  } else if (dims >= 2 && roll == 2) {
    cfg.tiling = TilingScheme::StreamConcurrent;
    cfg.stream_chunk = static_cast<int>(rng.uniform_int(3, 9));
  } else {
    cfg.tiling = TilingScheme::Spatial3D;
  }
  cfg.stream_axis = dims - 1;
  cfg.block = {static_cast<int>(rng.uniform_int(2, 7)),
               dims >= 2 ? static_cast<int>(rng.uniform_int(2, 7)) : 1,
               dims >= 3 ? static_cast<int>(rng.uniform_int(1, 5)) : 1};
  if (cfg.tiling != TilingScheme::Spatial3D) {
    cfg.block[static_cast<std::size_t>(dims - 1)] = 1;
  }
  if (rng.coin(0.3)) cfg.unroll[0] = 2;
  return cfg;
}

}  // namespace artemis::verify
