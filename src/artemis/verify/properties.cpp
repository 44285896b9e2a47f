// Implementations of the five property families (see verify.hpp). Each
// checker is exception-safe at the check_property boundary: anything a
// transform/engine throws on a valid program is itself a finding.

#include <algorithm>
#include <cmath>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/dsl/printer.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/profile/profiler.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/storage/vfs.hpp"
#include "artemis/transform/fission.hpp"
#include "artemis/transform/fold.hpp"
#include "artemis/transform/fusion.hpp"
#include "artemis/transform/retime.hpp"
#include "artemis/verify/oracle.hpp"
#include "artemis/verify/verify.hpp"

namespace artemis::verify {

const char* property_name(Property p) {
  switch (p) {
    case Property::RoundTrip: return "roundtrip";
    case Property::TransformEquivalence: return "transform-equivalence";
    case Property::EngineEquivalence: return "engine-equivalence";
    case Property::TunerDeterminism: return "tuner-determinism";
    case Property::VariantEquivalence: return "variant-equivalence";
  }
  return "unknown";
}

std::optional<Property> property_by_name(const std::string& name) {
  for (const Property p : all_properties()) {
    if (name == property_name(p)) return p;
  }
  return std::nullopt;
}

std::vector<Property> all_properties() {
  return {Property::RoundTrip, Property::TransformEquivalence,
          Property::EngineEquivalence, Property::TunerDeterminism,
          Property::VariantEquivalence};
}

namespace {

constexpr double kTol = 1e-12;

using Margins = std::array<std::int64_t, 3>;

/// Map per-iterator halo radii to (z,y,x) grid margins: iterator d of a
/// dims-dimensional program addresses grid axis 3-dims+d (arrays pack
/// their axes to the right, gridset.cpp extents_of).
Margins zyx_margins(const ir::Program& prog,
                    const std::array<int, 3>& radius) {
  const int dims = static_cast<int>(prog.iterators.size());
  Margins m = {0, 0, 0};
  for (int d = 0; d < dims; ++d) {
    m[static_cast<std::size_t>(3 - dims + d)] = radius[static_cast<
        std::size_t>(d)];
  }
  return m;
}

bool all_top_level_calls(const ir::Program& prog) {
  return !prog.steps.empty() &&
         std::all_of(prog.steps.begin(), prog.steps.end(),
                     [](const ir::Step& s) {
                       return s.kind == ir::Step::Kind::Call;
                     });
}

/// Accumulated per-axis halo over the top-level call chain: the rim a
/// fully fused version vetoes, hence the safe comparison margins.
Margins chain_margins(const ir::Program& prog) {
  std::array<int, 3> r = {0, 0, 0};
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind != ir::ExecStep::Kind::Stencil) continue;
    const auto radius = ir::analyze(prog, step.stencil).radius;
    for (std::size_t d = 0; d < 3; ++d) r[d] += radius[d];
  }
  return zyx_margins(prog, r);
}

std::string first_line_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  int line = 1;
  for (;; ++line) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "texts differ in trailing whitespace";
    if (!ga || !gb || la != lb) {
      return str_cat("line ", line, ": '", ga ? la : std::string("<eof>"),
                     "' vs '", gb ? lb : std::string("<eof>"), "'");
    }
  }
}

/// Compare the named grids of two grid sets away from the halo rim.
/// Boundary guards merge or split under the transforms, so only points
/// at least `margins` from every face are trusted; when the halo covers
/// an entire axis there are no trusted points and the comparison is
/// vacuous (a smaller margin would compare exactly the rim the
/// transform is allowed to change).
std::string diff_interior(const sim::GridSet& want, const sim::GridSet& got,
                          const std::vector<std::string>& names,
                          const Margins& margins, const std::string& label) {
  for (const auto& name : names) {
    const Grid3D& a = want.grid(name);
    const Grid3D& b = got.grid(name);
    const auto& e = a.extents();
    const std::int64_t lo[3] = {margins[0], margins[1], margins[2]};
    const std::int64_t hi[3] = {e.z - margins[0], e.y - margins[1],
                                e.x - margins[2]};
    if (lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2]) continue;
    double worst = 0;
    std::int64_t wz = 0, wy = 0, wx = 0;
    for (std::int64_t z = lo[0]; z < hi[0]; ++z) {
      for (std::int64_t y = lo[1]; y < hi[1]; ++y) {
        for (std::int64_t x = lo[2]; x < hi[2]; ++x) {
          const double d = std::abs(a.at(z, y, x) - b.at(z, y, x));
          if (!(d <= worst)) {  // catches NaN too
            worst = d;
            wz = z, wy = y, wx = x;
          }
        }
      }
    }
    if (!(worst < kTol)) {
      return str_cat(label, ": grid '", name, "' interior max|diff| = ",
                     format_double(worst, 17), " at (", wz, ",", wy, ",", wx,
                     ") (margins ", margins[0], ",", margins[1], ",",
                     margins[2], ")");
    }
  }
  return {};
}

}  // namespace

namespace {

/// Structural comparison of the pieces the fixpoint test alone cannot
/// protect: a printer that silently *drops* a clause still reaches a
/// fixpoint, so decoration and shape are compared against the original
/// in-memory program as well.
std::string structural_diff(const ir::Program& a, const ir::Program& b) {
  if (a.stencils.size() != b.stencils.size()) return "stencil count differs";
  if (a.steps.size() != b.steps.size()) return "step count differs";
  if (a.arrays.size() != b.arrays.size()) return "array count differs";
  if (a.scalars.size() != b.scalars.size()) return "scalar count differs";
  if (a.copyin != b.copyin) return "copyin list differs";
  if (a.copyout != b.copyout) return "copyout list differs";
  for (std::size_t i = 0; i < a.stencils.size(); ++i) {
    const auto& sa = a.stencils[i];
    const auto& sb = b.stencils[i];
    if (sa.name != sb.name || sa.params != sb.params) {
      return str_cat("stencil ", i, ": signature differs");
    }
    if (sa.stmts.size() != sb.stmts.size()) {
      return str_cat("stencil '", sa.name, "': statement count differs");
    }
    if (sa.pragma.stream_iter != sb.pragma.stream_iter ||
        sa.pragma.block != sb.pragma.block ||
        sa.pragma.unroll != sb.pragma.unroll ||
        sa.pragma.occupancy != sb.pragma.occupancy) {
      return str_cat("stencil '", sa.name, "': #pragma lost or changed");
    }
    if (sa.resources.spaces != sb.resources.spaces) {
      return str_cat("stencil '", sa.name, "': #assign lost or changed");
    }
  }
  return {};
}

}  // namespace

CheckResult check_roundtrip(const ir::Program& prog) {
  const std::string s0 = dsl::print_program(prog);
  ir::Program p1;
  try {
    p1 = dsl::parse(s0);
  } catch (const Error& e) {
    return {false, str_cat("printed program fails to parse: ", e.what())};
  }
  const std::string s1 = dsl::print_program(p1);
  if (s1 != s0) {
    return {false, str_cat("print->parse->print is not a fixpoint: ",
                           first_line_diff(s0, s1))};
  }
  if (std::string d = structural_diff(prog, p1); !d.empty()) {
    return {false, str_cat("parse(print(p)) lost structure: ", d)};
  }
  return {};
}

CheckResult check_transforms(const ir::Program& prog, std::uint64_t seed) {
  const auto dev = gpumodel::p100();
  const sim::GridSet base = sim::GridSet::from_program(prog, seed);

  // Per-stencil statement-level transforms: decomposition and retiming
  // both preserve per-kernel semantics (retimed statements keep their
  // original offsets; the shift is realized in codegen).
  const int dims = static_cast<int>(prog.iterators.size());
  for (const auto& step : prog.steps) {
    if (step.kind != ir::Step::Kind::Call) continue;
    const ir::BoundStencil bound = ir::bind_call(prog, step.call);
    const ir::StencilInfo info = ir::analyze(prog, bound);
    const Margins margin = zyx_margins(prog, info.radius);

    sim::GridSet want = base.clone();
    sim::run_stencil_reference(prog, bound, want);

    ir::BoundStencil decomposed = bound;
    decomposed.stmts.clear();
    for (const auto& st : bound.stmts) {
      for (auto& d : transform::decompose_statement(st)) {
        decomposed.stmts.push_back(std::move(d));
      }
    }
    sim::GridSet got = base.clone();
    sim::run_stencil_reference(prog, decomposed, got);
    if (std::string d = diff_interior(want, got, info.outputs, margin,
                                      str_cat("decompose '", bound.name, "'"));
        !d.empty()) {
      return {false, d};
    }

    const transform::RetimeResult rt = transform::try_retime(bound.stmts,
                                                             dims - 1);
    ir::BoundStencil retimed = bound;
    retimed.stmts = rt.stmts;
    got = base.clone();
    sim::run_stencil_reference(prog, retimed, got);
    if (std::string d = diff_interior(want, got, info.outputs, margin,
                                      str_cat("retime '", bound.name, "'"));
        !d.empty()) {
      return {false, d};
    }

    // Folding is analysis-only: it must not crash and must report
    // non-negative savings on every valid statement list.
    const auto groups = transform::find_fold_groups(bound.stmts);
    if (transform::folding_flop_savings(bound.stmts, groups) < 0) {
      return {false, str_cat("fold '", bound.name,
                             "': negative flop savings")};
    }
  }

  // Whole-program transforms against the reference oracle.
  sim::GridSet ref = base.clone();
  sim::run_program_reference(prog, ref);
  const Margins margin = chain_margins(prog);

  if (all_top_level_calls(prog) && prog.steps.size() >= 2) {
    std::optional<ir::Program> fused;
    try {
      fused = transform::maxfuse_program(prog);
    } catch (const SemanticError&) {
      // Cross-point DAG: fusion is correctly refused; nothing to compare.
    }
    if (fused) {
      sim::GridSet got = base.clone();
      sim::run_program_reference(*fused, got);
      if (std::string d = diff_interior(ref, got, prog.copyout, margin,
                                        "maxfuse");
          !d.empty()) {
        return {false, d};
      }

      // Fission re-splits the fused monolith; both flavors must agree
      // with the original chain.
      const std::string mono = fused->stencils.front().name;
      const ir::Program triv = transform::trivial_fission(*fused, mono);
      got = base.clone();
      sim::run_program_reference(triv, got);
      if (std::string d = diff_interior(ref, got, prog.copyout, margin,
                                        "trivial-fission");
          !d.empty()) {
        return {false, d};
      }
      const ir::Program rec = transform::recompute_fission(*fused, mono, dev);
      got = base.clone();
      sim::run_program_reference(rec, got);
      if (std::string d = diff_interior(ref, got, prog.copyout, margin,
                                        "recompute-fission");
          !d.empty()) {
        return {false, d};
      }
    }
  }

  // Overlapped time tiling of iterate blocks (homogeneous Dirichlet
  // boundaries required — see zero_boundary).
  for (const auto& step : prog.steps) {
    if (step.kind != ir::Step::Kind::Iterate) continue;
    if (step.body.size() != 2 ||
        step.body[0].kind != ir::Step::Kind::Call ||
        step.body[1].kind != ir::Step::Kind::Swap) {
      continue;  // time_tile_iterate only handles call+swap bodies
    }
    const int x = step.iterations % 2 == 0 ? 2 : 1;
    sim::GridSet pre = base.clone();
    const std::int64_t bmargin =
        std::max(1, ir::analyze(prog, ir::bind_call(prog, step.body[0].call))
                        .order);
    for (const auto& [name, g] : pre.grids()) {
      (void)name;
      sim::zero_boundary(*g, bmargin);
    }
    sim::GridSet want = pre.clone();
    sim::run_program_reference(prog, want);

    try {
      const transform::TimeTiledKernel tt =
          transform::time_tile_iterate(prog, step, x);
      sim::GridSet fused = sim::GridSet::from_program(tt.augmented, seed);
      for (const auto& [name, g] : pre.grids()) fused.grid(name) = *g;
      codegen::KernelConfig cfg;
      cfg.block = {4, prog.iterators.size() >= 2 ? 4 : 1,
                   prog.iterators.size() >= 3 ? 2 : 1};
      cfg.time_tile = x;
      const auto plan = codegen::build_plan(tt.augmented, tt.stages, cfg,
                                            dev);
      for (std::int64_t inv = 0; inv < step.iterations / x; ++inv) {
        sim::execute_plan(plan, fused);
        fused.swap(step.body[1].swap.a, step.body[1].swap.b);
      }
      for (const auto& out : prog.copyout) {
        const double d = Grid3D::max_abs_diff(want.grid(out),
                                              fused.grid(out));
        if (!(d < kTol)) {
          return {false, str_cat("time-tile x=", x, ": grid '", out,
                                 "' max|diff| = ", format_double(d, 17))};
        }
      }
    } catch (const SemanticError&) {
      // The tiler refused this body shape: a designed refusal.
    } catch (const PlanError&) {
      // No feasible plan for the tiled kernel at this block size.
    }
  }

  return {};
}

CheckResult check_engines(const ir::Program& prog, std::uint64_t seed) {
  Rng rng(seed ^ 0x517AC0DEULL);
  const int dims = static_cast<int>(prog.iterators.size());
  const codegen::KernelConfig cfg = random_config(rng, dims);
  try {
    if (std::string d = engines_diff(prog, cfg, false, seed); !d.empty()) {
      return {false, str_cat("unfused cfg ", cfg.to_string(), ": ", d)};
    }
    if (all_top_level_calls(prog) && prog.steps.size() >= 2) {
      if (std::string d = engines_diff(prog, cfg, true, seed); !d.empty()) {
        return {false, str_cat("fused cfg ", cfg.to_string(), ": ", d)};
      }
    }
  } catch (const PlanError&) {
    // Infeasible config/pin combination: the planner's refusal is the
    // designed outcome, not an equivalence failure.
  }
  return {};
}

CheckResult check_tuner_determinism(const ir::Program& prog,
                                    std::uint64_t seed) {
  if (!all_top_level_calls(prog) || prog.stencils.empty()) {
    return {};  // tuning needs a plain call chain
  }
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;
  const int dims = static_cast<int>(prog.iterators.size());
  const codegen::StageTemplate tmpl(prog, transform::bind_all_calls(prog));
  const autotune::PlanFactory factory =
      [&](const codegen::KernelConfig& cfg) {
        return codegen::try_configure(tmpl, cfg, dev);
      };
  const codegen::KernelConfig seed_cfg =
      codegen::config_from_pragma(prog, prog.stencils.front().pragma, dims);

  struct Run {
    autotune::TuneResult result;
    std::string journal_bytes;
  };
  const auto run_once = [&](int jobs) {
    // Only the journal bytes are compared, so each tune journals into a
    // filesystem of its own in memory.
    storage::MemVfs vfs;
    robust::TuningJournal journal(vfs);
    const auto load = journal.open("verify.wal", "verify", false);
    ARTEMIS_CHECK_MSG(load.status != robust::JournalLoadResult::Status::IoError,
                      "cannot open in-memory journal: " << load.message);
    autotune::TuneOptions to;
    to.jobs = jobs;
    to.journal = &journal;
    to.journal_scope = "verify";
    Run r;
    r.result = autotune::hierarchical_tune(factory, seed_cfg, dev, params,
                                           to);
    r.journal_bytes = vfs.read("verify.wal").value_or("");
    return r;
  };

  Run a, b, c;
  try {
    a = run_once(1);
    b = run_once(1);
    c = run_once(4);
  } catch (const PlanError&) {
    // No feasible configuration for this program: a refusal, not a
    // determinism failure.
    return {};
  }
  const auto cfg_str = [](const autotune::TuneResult& r) {
    return autotune::serialize_config(r.best.config);
  };
  const auto board_str = [&](const autotune::TuneResult& r) {
    std::string s;
    for (const auto& cand : r.leaderboard) {
      s += autotune::serialize_config(cand.config) + ";";
    }
    return s;
  };
  if (cfg_str(a.result) != cfg_str(b.result)) {
    return {false, str_cat("repeated jobs=1 runs tuned different plans: ",
                           cfg_str(a.result), " vs ", cfg_str(b.result))};
  }
  if (cfg_str(a.result) != cfg_str(c.result)) {
    return {false, str_cat("jobs=4 tuned a different plan: ",
                           cfg_str(a.result), " vs ", cfg_str(c.result))};
  }
  if (board_str(a.result) != board_str(c.result)) {
    return {false, "jobs=4 produced a different leaderboard"};
  }
  if (a.journal_bytes != b.journal_bytes) {
    return {false, "repeated jobs=1 runs wrote different journals"};
  }
  if (a.journal_bytes != c.journal_bytes) {
    return {false, "jobs=4 wrote a different journal than jobs=1"};
  }

  // The random-sampling tuner must also be jobs-invariant for a fixed
  // draw seed.
  autotune::TuneOptions to1, to4;
  to1.jobs = 1;
  to4.jobs = 4;
  try {
    const auto r1 = autotune::random_tune(factory, seed_cfg, dev, params, to1,
                                          24, seed);
    const auto r4 = autotune::random_tune(factory, seed_cfg, dev, params, to4,
                                          24, seed);
    if (cfg_str(r1) != cfg_str(r4)) {
      return {false, str_cat("random_tune jobs=4 picked a different plan: ",
                             cfg_str(r1), " vs ", cfg_str(r4))};
    }
  } catch (const PlanError&) {
    return {};
  }
  return {};
}

CheckResult check_variants(const ir::Program& prog, std::uint64_t seed) {
  const auto dev = gpumodel::p100();
  const int dims = static_cast<int>(prog.iterators.size());

  sim::GridSet ref = sim::GridSet::from_program(prog, seed);
  sim::run_program_reference(prog, ref);

  std::vector<std::pair<std::string, codegen::KernelConfig>> cfgs;
  {
    codegen::KernelConfig spatial;
    spatial.block = {4, dims >= 2 ? 4 : 1, dims >= 3 ? 2 : 1};
    cfgs.emplace_back("spatial", spatial);
    codegen::KernelConfig unrolled = spatial;
    unrolled.unroll[0] = 2;
    cfgs.emplace_back("spatial+unroll", unrolled);
    if (dims >= 2) {
      codegen::KernelConfig stream = spatial;
      stream.tiling = codegen::TilingScheme::StreamSerial;
      stream.stream_axis = dims - 1;
      stream.block[static_cast<std::size_t>(dims - 1)] = 1;
      cfgs.emplace_back("stream-serial", stream);
    }
  }

  codegen::KernelPlan last_plan;
  bool have_plan = false;
  for (const bool shmem : {true, false}) {
    for (const auto& [label, cfg] : cfgs) {
      codegen::BuildOptions bo;
      bo.use_shared_memory = shmem;
      sim::GridSet got = sim::GridSet::from_program(prog, seed);
      bool infeasible = false;
      for (const auto& step : ir::flatten_steps(prog)) {
        if (step.kind == ir::ExecStep::Kind::Swap) {
          got.swap(step.swap.a, step.swap.b);
          continue;
        }
        try {
          auto plan = codegen::build_plan(prog, {step.stencil}, cfg, dev, bo);
          sim::execute_plan(plan, got);
          last_plan = std::move(plan);
          have_plan = true;
        } catch (const PlanError&) {
          // A decorated pin this variant cannot honor; skip the variant.
          infeasible = true;
          break;
        }
      }
      if (infeasible) continue;
      // Every code version computes the same statement lists per call, so
      // all variants must agree with the reference bit-for-bit.
      if (std::string d = grids_diff(ref, got); !d.empty()) {
        return {false, str_cat("variant ", label, shmem ? "+shmem" : "+gmem",
                               ": ", d)};
      }
    }
  }

  // Profiler code-differencing smoke: the report on a real plan must be
  // finite and self-consistent (the differencing variant is analytic —
  // the grids above are the semantic half of the property).
  if (have_plan) {
    const auto rep = profile::profile_plan(last_plan, dev, {});
    if (!(rep.eval.time_s > 0) || !std::isfinite(rep.eval.time_s)) {
      return {false, str_cat("profiler reported non-finite time ",
                             format_double(rep.eval.time_s, 6))};
    }
    for (const double oi : {rep.oi_dram, rep.oi_tex, rep.oi_shm}) {
      if (!(oi >= 0) || !std::isfinite(oi)) {
        return {false, "profiler reported negative or non-finite OI"};
      }
    }
    if (rep.summary().empty()) {
      return {false, "profiler produced an empty summary"};
    }
  }
  return {};
}

CheckResult check_property(Property p, const ir::Program& prog,
                           std::uint64_t seed) {
  try {
    switch (p) {
      case Property::RoundTrip: return check_roundtrip(prog);
      case Property::TransformEquivalence:
        return check_transforms(prog, seed);
      case Property::EngineEquivalence: return check_engines(prog, seed);
      case Property::TunerDeterminism:
        return check_tuner_determinism(prog, seed);
      case Property::VariantEquivalence: return check_variants(prog, seed);
    }
    return {false, "unknown property"};
  } catch (const Error& e) {
    return {false, str_cat("exception: ", e.what())};
  } catch (const std::exception& e) {
    return {false, str_cat("exception: ", e.what())};
  }
}

}  // namespace artemis::verify
