#include "artemis/driver/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "artemis/common/check.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/printer.hpp"
#include "artemis/robust/errors.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "artemis/transform/fission.hpp"
#include "artemis/transform/fusion.hpp"

namespace artemis::driver {

namespace {

using codegen::BuildOptions;
using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::TilingScheme;

/// Structured record of a candidate (a stage group, a fusion degree, a
/// memory version) the driver dropped on an exception: which derive
/// stage dropped it, what it was, and the error taxonomy class. Keeps
/// every dropped candidate visible in traces and the run report instead
/// of silently vanishing into a catch block. The tuner-level
/// `enumerated == evaluated + infeasible` invariant is untouched: these
/// drops happen above the candidate evaluator.
void record_dropped(const char* stage, const std::string& detail,
                    const std::exception& e) {
  telemetry::counter_add("driver.dropped_candidates");
  if (!telemetry::enabled()) return;
  telemetry::instant("driver.candidate_dropped", "pipeline",
                     {{"stage", Json(stage)},
                      {"detail", Json(detail)},
                      {"error_class", Json(robust::error_class(e))},
                      {"what", Json(std::string(e.what()))}});
}

/// Theoretical operational intensity (Table III "OI_T"): FLOPs per point
/// over one compulsory 8-byte access per touched array.
double theoretical_oi(const ir::StencilInfo& info) {
  return static_cast<double>(info.flops_per_point) /
         (8.0 * std::max(info.num_io_arrays, 1));
}

std::int64_t domain_points(const ir::Program& prog,
                           const ir::StencilInfo& info) {
  ARTEMIS_CHECK(!info.outputs.empty());
  const ir::ArrayDecl* decl = prog.find_array(info.outputs.front());
  ARTEMIS_CHECK(decl != nullptr);
  std::int64_t pts = 1;
  for (const auto& d : decl->dims) pts *= prog.param_value(d);
  return pts;
}

/// A recipe bound at one time tile: the program the stages bind against,
/// the stage list and the build options of the recipe's memory version.
struct BoundRecipe {
  ir::Program program;
  std::vector<ir::BoundStencil> stages;
  BuildOptions options;
};

/// The one binder of recipes. A run of calls binds call i with prefix
/// `f<i>_`, so fused stages' local temporaries never collide; an iterate
/// block binds its (time_tile x 1) fused version.
BoundRecipe bind_recipe(const KernelRecipe& recipe, int time_tile) {
  BoundRecipe b;
  b.options = {.use_shared_memory = recipe.use_shared_memory,
               .fuse_internal = true};
  const auto& steps = recipe.program.steps;
  const ir::Step& first = steps.at(static_cast<std::size_t>(recipe.first_call));
  if (first.kind == ir::Step::Kind::Iterate) {
    transform::TimeTiledKernel tt =
        transform::time_tile_iterate(recipe.program, first, time_tile);
    b.program = std::move(tt.augmented);
    b.stages = std::move(tt.stages);
    return b;
  }
  b.program = recipe.program;
  for (int i = recipe.first_call; i <= recipe.last_call; ++i) {
    b.stages.push_back(
        ir::bind_call(b.program, steps.at(static_cast<std::size_t>(i)).call,
                      str_cat("f", i, "_")));
  }
  return b;
}

/// Tune one recipe (at `time_tile` for an iterate block) under a strategy;
/// returns the best candidate. Tuned configs keep the seed's time_tile.
autotune::TuneResult tune_stages(const KernelRecipe& recipe, int time_tile,
                                 const gpumodel::DeviceSpec& dev,
                                 const gpumodel::ModelParams& params,
                                 const Strategy& strategy,
                                 std::vector<std::string>* hints,
                                 const std::string& scope_suffix = "") {
  telemetry::Span span("driver.tune_stages", "pipeline");
  const BoundRecipe bound = bind_recipe(recipe, time_tile);
  const ir::Program& prog = bound.program;
  const bool use_shmem = recipe.use_shared_memory;
  std::vector<std::string> names;
  for (const auto& s : bound.stages) names.push_back(s.name);
  const std::string label =
      str_cat(join(names, "+"), use_shmem ? "/shm" : "/gbl",
              scope_suffix.empty() ? "" : "/", scope_suffix);
  if (telemetry::enabled()) {
    span.arg("stages", Json(join(names, "+")));
    span.arg("shared_memory", Json(use_shmem));
  }
  // Analyze the stage list once; every candidate (and the baseline
  // profile below) is a configuration of this template.
  const codegen::StageTemplate tmpl(prog, bound.stages, bound.options);
  const autotune::PlanFactory factory = [&tmpl,
                                         &dev](const KernelConfig& cfg) {
    return codegen::try_configure(tmpl, cfg, dev);
  };

  KernelConfig seed =
      codegen::config_from_pragma(prog, bound.stages.front().pragma,
                                  static_cast<int>(prog.iterators.size()));
  if (!strategy.allow_streaming ||
      (!use_shmem && seed.tiling == TilingScheme::StreamSerial &&
       strategy.name == "global")) {
    seed.tiling = TilingScheme::Spatial3D;
  }
  if (strategy.name == "global-stream" && prog.iterators.size() >= 2) {
    seed.tiling = TilingScheme::StreamSerial;
    seed.stream_axis = static_cast<int>(prog.iterators.size()) - 1;
  }
  seed.retime = strategy.allow_retime;
  seed.fold = strategy.allow_fold;

  autotune::TuneOptions topts = strategy.tune;
  // Scope the journal/quarantine keys to this stage list + memory
  // version (+ caller-provided suffix, e.g. the fusion degree), so the
  // same knob vector tuned in different contexts never collides.
  if (topts.journal != nullptr) topts.journal_scope = label;

  // Profile the pragma-derived baseline to prune the search (Section IV-A
  // / Section VII step 2).
  if (strategy.profile_guided) {
    const telemetry::Span span("driver.baseline_profile", "pipeline");
    try {
      const KernelPlan baseline = codegen::configure(tmpl, seed, dev);
      const auto report = profile::profile_plan(baseline, dev, params);
      const auto h = profile::derive_hints(report, /*iterative=*/false,
                                           use_shmem);
      if (h.disable_unroll) topts.disable_unroll = true;
      if (hints) {
        hints->insert(hints->end(), h.text.begin(), h.text.end());
      }
      topts.theoretically_bandwidth_bound =
          theoretical_oi(baseline.info) < dev.balance_dram();
    } catch (const robust::EvalError& e) {
      // The baseline measurement failed transiently; tune unguided.
      record_dropped("baseline_profile", label, e);
    } catch (const PlanError& e) {
      // Baseline infeasible; the tuner will search from scratch.
      record_dropped("baseline_profile", label, e);
    }
  }

  return autotune::hierarchical_tune(factory, seed, dev, params, topts);
}

/// Assemble a result from kernels, applying the strategy's multiplier and
/// launch overhead.
void finalize(ProgramResult& result, const gpumodel::ModelParams& params,
              const Strategy& strategy) {
  result.strategy = strategy.name;
  // Deduplicate hints (multiple kernels can trigger the same guideline).
  {
    std::vector<std::string> unique;
    for (auto& h : result.hints) {
      if (std::find(unique.begin(), unique.end(), h) == unique.end()) {
        unique.push_back(std::move(h));
      }
    }
    result.hints = std::move(unique);
  }
  result.time_s = 0;
  result.kernel_launches = 0;
  for (const auto& k : result.kernels) {
    result.time_s += k.time_s();
    result.kernel_launches += k.invocations;
  }
  result.time_s *= strategy.time_multiplier;
  result.time_s +=
      params.launch_overhead_s * static_cast<double>(result.kernel_launches);
  result.tflops = result.time_s > 0
                      ? static_cast<double>(result.useful_flops) /
                            result.time_s / 1e12
                      : 0.0;
}

/// Iterative programs: deep tuning + the opt(T) schedule (Section VI-A).
ProgramResult optimize_iterative(const ir::Program& prog,
                                 const ir::Step& iterate_step,
                                 const gpumodel::DeviceSpec& dev,
                                 const gpumodel::ModelParams& params,
                                 const Strategy& strategy) {
  ProgramResult result;
  const KernelRecipe recipe{prog, 0, 0, strategy.use_shared_memory};

  // Tune and profile the (x x 1) version under the strategy's plan space
  // and memory version.
  const auto tune_tile = [&](int x) {
    telemetry::Span span("driver.deep_tune", "pipeline");
    span.arg("time_tile", Json(x));
    autotune::DeepTuneEntry entry;
    entry.time_tile = x;
    try {
      entry.tuned =
          tune_stages(recipe, x, dev, params, strategy,
                      x == 1 ? &result.hints : nullptr, str_cat("x", x));
    } catch (const PlanError& e) {
      record_dropped("deep_tune", str_cat("x", x), e);
      throw;
    }
    entry.time_s = entry.tuned.best.time_s;
    entry.tflops = entry.tuned.best.eval.tflops();
    try {
      KernelConfig cfg = entry.tuned.best.config;
      cfg.time_tile = x;
      entry.report = profile::profile_plan(kernel_plan(recipe, cfg, dev), dev,
                                           params);
    } catch (const robust::EvalError& e) {
      // Assume bandwidth-bound (keep fusing) if the profile itself fails
      // transiently; the per-step DP still sees the tuned timings.
      record_dropped("deep_profile", str_cat("x", x), e);
      entry.report.dram = profile::LevelVerdict::BandwidthBound;
    }
    return entry;
  };
  autotune::DeepTuneResult deep = autotune::deep_tune(
      strategy.allow_time_fusion ? strategy.max_time_tile : 1, tune_tile);

  const int T = static_cast<int>(iterate_step.iterations);
  {
    telemetry::Span span("driver.fusion_dp", "pipeline");
    span.arg("iterations", Json(T));
    result.fusion_schedule = autotune::fusion_schedule(deep, T);
  }

  // Group the schedule into kernels.
  std::map<int, int> tile_counts;
  for (const int x : result.fusion_schedule) ++tile_counts[x];
  for (const auto& [x, count] : tile_counts) {
    const autotune::DeepTuneEntry* entry = nullptr;
    for (const auto& e : deep.entries) {
      if (e.time_tile == x) entry = &e;
    }
    ARTEMIS_CHECK(entry != nullptr);
    KernelChoice kc;
    kc.name = str_cat("fused_x", x);
    kc.recipe = recipe;
    kc.config = entry->tuned.best.config;
    kc.config.time_tile = x;  // record the fusion degree in the config
    kc.eval = entry->tuned.best.eval;
    kc.invocations = count;
    kc.leaderboard = entry->tuned.leaderboard;
    result.kernels.push_back(std::move(kc));
  }

  // Useful FLOPs: T applications of the iterate body.
  std::int64_t per_step_flops = 0;
  {
    const telemetry::Span span("driver.analysis", "pipeline");
    for (const auto& step : iterate_step.body) {
      if (step.kind != ir::Step::Kind::Call) continue;
      const auto info = ir::analyze(prog, ir::bind_call(prog, step.call));
      per_step_flops += info.flops_per_point * domain_points(prog, info);
    }
  }
  result.useful_flops = per_step_flops * T;
  result.deep_tuning = std::move(deep);
  finalize(result, params, strategy);
  return result;
}

/// Make a tune's winner the kernel's config.
void adopt(KernelChoice& kc, autotune::TuneResult tuned) {
  kc.config = tuned.best.config;
  kc.eval = tuned.best.eval;
  kc.leaderboard = std::move(tuned.leaderboard);
}

/// Pick the better of the shared-memory and global versions of calls
/// [first, last] of `prog`, following the Section IV-A guidelines.
KernelChoice choose_version(const ir::Program& prog, int first, int last,
                            const gpumodel::DeviceSpec& dev,
                            const gpumodel::ModelParams& params,
                            const Strategy& strategy,
                            std::vector<std::string>* hints) {
  KernelChoice kc;
  std::vector<std::string> names;
  for (int i = first; i <= last; ++i) {
    names.push_back(prog.steps[static_cast<std::size_t>(i)].call.callee);
  }
  kc.name = join(names, "+");
  kc.recipe = {prog, first, last, strategy.use_shared_memory};

  if (!strategy.use_shared_memory) {
    adopt(kc, tune_stages(kc.recipe, 1, dev, params, strategy, hints));
    return kc;
  }

  autotune::TuneResult shm;
  try {
    shm = tune_stages(kc.recipe, 1, dev, params, strategy, hints);
  } catch (const PlanError& e) {
    // No feasible shared-memory mapping at any block shape (e.g. too many
    // staged arrays at this order): fall back to the global version.
    record_dropped("choose_version", str_cat(kc.name, "/shm"), e);
    if (hints) {
      hints->push_back(
          "no feasible shared-memory mapping: tuning the global version");
    }
    kc.recipe.use_shared_memory = false;
    adopt(kc, tune_stages(kc.recipe, 1, dev, params, strategy, hints));
    return kc;
  }
  adopt(kc, std::move(shm));

  if (strategy.profile_guided) {
    try {
      const KernelPlan plan = kernel_plan(kc.recipe, kc.config, dev);
      const auto report = profile::profile_plan(plan, dev, params);
      const auto h =
          profile::derive_hints(report, /*iterative=*/false, true);
      if (hints) hints->insert(hints->end(), h.text.begin(), h.text.end());
      // ARTEMIS always materializes the global version as well (it is one
      // of the versions it emits, Section VIII-F); when the shared-memory
      // winner is still bandwidth-bound at DRAM — or merely slower — the
      // global version is kept instead.
      if (h.prefer_global_version || report.bandwidth_bound_anywhere()) {
        KernelRecipe global = kc.recipe;
        global.use_shared_memory = false;
        auto gbl = tune_stages(global, 1, dev, params, strategy, nullptr);
        if (gbl.best.time_s < kc.eval.time_s) {
          kc.recipe.use_shared_memory = false;
          adopt(kc, std::move(gbl));
          if (hints) {
            hints->push_back(
                "tuned global-memory version outperformed the shared-memory "
                "version; keeping it");
          }
        }
      }
    } catch (const robust::EvalError& e) {
      // The comparison profile failed transiently: keep the tuned
      // shared-memory winner instead of aborting the whole program.
      record_dropped("version_select", kc.name, e);
    }
  }
  return kc;
}

ProgramResult optimize_spatial(const ir::Program& prog,
                               const gpumodel::DeviceSpec& dev,
                               const gpumodel::ModelParams& params,
                               const Strategy& strategy, bool allow_fission) {
  ProgramResult result;

  // Groups are contiguous runs of the (topologically ordered) call chain.
  for (const auto& step : prog.steps) {
    ARTEMIS_CHECK_MSG(step.kind == ir::Step::Kind::Call,
                      "spatial path expects a flat call list");
  }
  const int n = static_cast<int>(prog.steps.size());

  if (!strategy.allow_dag_fusion || n == 1) {
    for (int i = 0; i < n; ++i) {
      result.kernels.push_back(
          choose_version(prog, i, i, dev, params, strategy, &result.hints));
    }
  } else if (!strategy.partition_dag) {
    // Maxfuse-only (STENCILGEN): one kernel for the whole chain.
    result.kernels.push_back(choose_version(prog, 0, n - 1, dev, params,
                                            strategy, &result.hints));
  } else {
    // Fusion-partition search (Section VI-B): tune every contiguous group
    // [i..j], then solve best[j] = min_i cost(i,j) + best[i-1]. The chain
    // order is a topological order, so contiguous groups are always legal
    // fusion forests.
    telemetry::Span span("driver.fusion_dp", "pipeline");
    span.arg("chain_length", Json(n));
    std::vector<std::vector<std::optional<KernelChoice>>> cost(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      cost[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n));
      for (int j = i; j < n; ++j) {
        try {
          cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              choose_version(prog, i, j, dev, params, strategy,
                             i == 0 && j == 0 ? &result.hints : nullptr);
        } catch (const PlanError& e) {
          // No feasible version for this group in any memory space.
          record_dropped("fusion_partition", str_cat(i, "..", j), e);
        }
      }
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> best(static_cast<std::size_t>(n) + 1, kInf);
    std::vector<int> cut(static_cast<std::size_t>(n) + 1, -1);
    best[0] = 0.0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i <= j; ++i) {
        const auto& c =
            cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (!c) continue;
        const double t = best[static_cast<std::size_t>(i)] +
                         c->eval.time_s + params.launch_overhead_s;
        if (t < best[static_cast<std::size_t>(j) + 1]) {
          best[static_cast<std::size_t>(j) + 1] = t;
          cut[static_cast<std::size_t>(j) + 1] = i;
        }
      }
    }
    ARTEMIS_CHECK_MSG(std::isfinite(best[static_cast<std::size_t>(n)]),
                      "no feasible fusion partition");
    std::vector<std::pair<int, int>> groups;
    for (int j = n; j > 0; j = cut[static_cast<std::size_t>(j)]) {
      groups.emplace_back(cut[static_cast<std::size_t>(j)], j - 1);
    }
    std::reverse(groups.begin(), groups.end());
    for (const auto& [i, j] : groups) {
      result.kernels.push_back(
          *cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
    if (groups.size() > 1 && n > 1) {
      result.hints.push_back(str_cat(
          "fusion-partition search chose ", groups.size(),
          " kernel(s) over the ", n, "-call chain"));
    }
  }

  {
    const telemetry::Span span("driver.analysis", "pipeline");
    for (const auto& step : prog.steps) {
      const auto info = ir::analyze(prog, ir::bind_call(prog, step.call));
      result.useful_flops += info.flops_per_point * domain_points(prog, info);
    }
  }
  finalize(result, params, strategy);

  // Register-pressure-driven fission (Section VI-B): when the chosen
  // kernel spills or is register-capped, emit fission candidates,
  // optimize each, and keep the best schedule.
  if (allow_fission && strategy.allow_fission && prog.steps.size() == 1) {
    const auto& call = prog.steps[0].call;
    // Register-pressure verdict straight from the chosen kernel's
    // evaluation: spills, or register-capped low occupancy.
    const auto& ev = result.kernels[0].eval;
    const bool pressure =
        ev.regs.spilled(result.kernels[0].config.max_registers) > 0 ||
        (ev.occupancy.limiter == gpumodel::Occupancy::Limiter::Registers &&
         ev.occupancy.fraction <= 0.25);
    if (pressure) {
      const telemetry::Span span("driver.fission", "pipeline");
      result.hints.push_back(
          "register pressure on the fused kernel: generating fission "
          "candidates (trivial, recompute)");
      std::vector<ir::Program> candidates;
      candidates.push_back(transform::trivial_fission(prog, call.callee));
      candidates.push_back(transform::recompute_fission(
          prog, call.callee, dev, strategy.tune.register_budgets.back()));
      for (auto& cand : candidates) {
        result.candidate_dsl.push_back(dsl::print_program(cand));
        Strategy sub = strategy;
        sub.allow_dag_fusion = false;  // fissioned kernels stay separate
        ProgramResult sub_result =
            optimize_spatial(cand, dev, params, sub, /*allow_fission=*/false);
        if (sub_result.time_s < result.time_s) {
          sub_result.hints = result.hints;
          sub_result.hints.push_back(
              "kernel fission outperformed the fused version");
          sub_result.candidate_dsl = result.candidate_dsl;
          sub_result.useful_flops = result.useful_flops;
          finalize(sub_result, params, strategy);
          result = std::move(sub_result);
        }
      }
    }
  }
  return result;
}

}  // namespace

KernelPlan kernel_plan(const KernelRecipe& recipe, const KernelConfig& config,
                       const gpumodel::DeviceSpec& dev,
                       ir::Program* bound_program) {
  BoundRecipe bound = bind_recipe(recipe, config.time_tile);
  KernelPlan plan = codegen::build_plan(bound.program, std::move(bound.stages),
                                        config, dev, bound.options);
  if (bound_program != nullptr) *bound_program = std::move(bound.program);
  return plan;
}

Strategy artemis_strategy() { return Strategy{}; }

Strategy ppcg_strategy() {
  Strategy s;
  s.name = "ppcg";
  s.use_shared_memory = true;   // naive all-arrays staging
  s.allow_streaming = false;    // no spatial/temporal streaming
  s.allow_time_fusion = true;   // time tiling, but shallow
  s.max_time_tile = 2;
  s.allow_dag_fusion = false;   // poor fusion choices: one kernel per call
  s.allow_fission = false;
  s.allow_retime = false;
  s.allow_fold = false;
  s.profile_guided = false;
  s.tune.max_unroll_bandwidth = 4;
  s.tune.explore_tiling = false;  // no streaming in the search space
  s.tune.tune_prefetch = false;
  s.tune.tune_perspective = false;
  s.tune.tune_concurrent_streaming = false;
  s.time_multiplier = 1.35;  // complex generated conditionals (VIII-F)
  return s;
}

Strategy stencilgen_strategy() {
  Strategy s;
  s.name = "stencilgen";
  s.partition_dag = false;  // fuses maximally, no partition search
  s.use_shared_memory = true;
  s.allow_streaming = true;    // automates streaming (VIII-F)
  s.allow_time_fusion = true;  // time tiling with associative reordering
  s.allow_dag_fusion = true;   // fusion for multi-statement stencils
  s.allow_fission = false;
  s.allow_retime = true;       // retiming (if massaged; we grant it)
  s.allow_fold = false;
  s.profile_guided = false;
  s.reject_mixed_dims = true;  // no mixed-dimensionality domains
  s.tune.disable_unroll = true;        // no unrolling
  s.tune.tune_prefetch = false;        // no prefetching
  s.tune.tune_perspective = false;     // no load/compute adjustment
  s.tune.tune_concurrent_streaming = false;
  return s;
}

Strategy halide_auto_strategy() {
  Strategy s;
  s.name = "halide-auto";
  s.use_shared_memory = true;
  s.allow_streaming = false;    // GPU schedules tile, they do not stream
  s.allow_time_fusion = true;   // sliding-window fusion, kept shallow
  s.max_time_tile = 2;
  s.allow_dag_fusion = true;
  s.partition_dag = false;      // greedy maximal fusion
  s.allow_fission = false;
  s.allow_retime = false;
  s.allow_fold = false;
  s.profile_guided = false;     // heuristics only, no counter feedback
  s.tune.explore_tiling = false;
  s.tune.tune_prefetch = false;
  s.tune.tune_perspective = false;
  s.tune.tune_concurrent_streaming = false;
  // The autoscheduler does not tune maxrregcount; nvcc's own allocation
  // (up to the 255 ceiling) applies, so very large kernels still spill
  // and there is no fission to relieve them.
  s.tune.register_budgets = {255};
  return s;
}

Strategy global_strategy(bool streaming) {
  Strategy s;
  s.name = streaming ? "global-stream" : "global";
  s.use_shared_memory = false;
  s.tune.explore_tiling = false;  // the ablation pins its tiling scheme
  s.allow_streaming = streaming;
  s.allow_time_fusion = false;  // plain per-step execution
  s.allow_dag_fusion = false;
  s.allow_fission = false;
  s.allow_retime = false;
  s.allow_fold = false;
  s.profile_guided = false;
  s.tune.tune_prefetch = false;
  s.tune.tune_concurrent_streaming = false;
  s.tune.tune_perspective = false;
  return s;
}

ProgramResult optimize_program(const ir::Program& prog,
                               const gpumodel::DeviceSpec& dev,
                               const gpumodel::ModelParams& params,
                               const Strategy& strategy) {
  telemetry::Span span("driver.optimize", "pipeline");
  span.arg("strategy", Json(strategy.name));
  span.arg("device", Json(dev.name));
  if (strategy.reject_mixed_dims) {
    for (const auto& a : prog.arrays) {
      if (a.dims.size() < prog.iterators.size()) {
        throw Error(str_cat(
            strategy.name, ": cannot generate code for '", a.name,
            "': domains with different dimensions within the same stencil "
            "function are not supported"));
      }
    }
  }

  // Iterative programs: a single iterate step.
  if (prog.steps.size() == 1 &&
      prog.steps[0].kind == ir::Step::Kind::Iterate) {
    return optimize_iterative(prog, prog.steps[0], dev, params, strategy);
  }
  for (const auto& step : prog.steps) {
    ARTEMIS_CHECK_MSG(step.kind == ir::Step::Kind::Call,
                      "programs must be a flat call list or one iterate "
                      "block");
  }
  return optimize_spatial(prog, dev, params, strategy,
                          strategy.allow_fission);
}

}  // namespace artemis::driver
