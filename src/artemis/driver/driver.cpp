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

/// Tune one stage list under a strategy; returns the best candidate.
autotune::TuneResult tune_stages(const ir::Program& prog,
                                 const std::vector<ir::BoundStencil>& stages,
                                 const gpumodel::DeviceSpec& dev,
                                 const gpumodel::ModelParams& params,
                                 const Strategy& strategy, bool use_shmem,
                                 std::vector<std::string>* hints,
                                 const std::string& scope_suffix = "") {
  telemetry::Span span("driver.tune_stages", "pipeline");
  std::vector<std::string> names;
  for (const auto& s : stages) names.push_back(s.name);
  const std::string label =
      str_cat(join(names, "+"), use_shmem ? "/shm" : "/gbl",
              scope_suffix.empty() ? "" : "/", scope_suffix);
  if (telemetry::enabled()) {
    span.arg("stages", Json(join(names, "+")));
    span.arg("shared_memory", Json(use_shmem));
  }
  // Analyze the stage list once; every candidate (and the baseline
  // profile below) is a configure() of this template.
  const codegen::StageTemplate tmpl(
      prog, stages,
      BuildOptions{.use_shared_memory = use_shmem, .fuse_internal = true});
  const autotune::PlanFactory factory = [&tmpl,
                                         &dev](const KernelConfig& cfg) {
    return codegen::configure(tmpl, cfg, dev);
  };

  KernelConfig seed =
      codegen::config_from_pragma(prog, stages.front().pragma,
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
      const KernelPlan baseline = factory(seed);
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

  autotune::DeepTuneOptions dopts;
  dopts.max_time_tile = strategy.allow_time_fusion ? strategy.max_time_tile : 1;
  dopts.tune = strategy.tune;

  // Restrict the deep tuner's plan space to the strategy.
  // (The deep tuner seeds serial streaming; global-only strategies flip.)
  autotune::DeepTuneResult deep;
  {
    // We re-implement the deep loop here so the strategy's BuildOptions
    // apply (deep_tune's factory uses defaults).
    bool past_cusp = false;
    for (int x = 1; x <= dopts.max_time_tile; ++x) {
      telemetry::Span span("driver.deep_tune", "pipeline");
      span.arg("time_tile", Json(x));
      const transform::TimeTiledKernel tt =
          transform::time_tile_iterate(prog, iterate_step, x);
      std::vector<std::string> hints;
      autotune::DeepTuneEntry entry;
      entry.time_tile = x;
      try {
        entry.tuned = tune_stages(tt.augmented, tt.stages, dev, params,
                                  strategy, strategy.use_shared_memory,
                                  &hints, str_cat("x", x));
      } catch (const PlanError& e) {
        // Resource constraints leave no feasible configuration at this
        // fusion degree; deeper fusion cannot become feasible again.
        record_dropped("deep_tune", str_cat("x", x), e);
        break;
      }
      entry.time_s = entry.tuned.best.time_s;
      entry.tflops = entry.tuned.best.eval.tflops();
      // Assume bandwidth-bound (keep fusing) if the profile itself fails
      // transiently; the per-step DP still sees the tuned timings.
      bool still_bw = true;
      try {
        const BuildOptions opts{.use_shared_memory =
                                    strategy.use_shared_memory,
                                .fuse_internal = true};
        const KernelPlan best_plan = codegen::build_plan(
            tt.augmented, tt.stages, entry.tuned.best.config, dev, opts);
        entry.report = profile::profile_plan(best_plan, dev, params);
        still_bw = entry.report.bandwidth_bound_anywhere();
      } catch (const robust::EvalError& e) {
        record_dropped("deep_profile", str_cat("x", x), e);
      }
      deep.entries.push_back(std::move(entry));
      if (x == 1) result.hints = hints;
      if (!still_bw) {
        if (past_cusp || dopts.max_time_tile == 1) break;
        past_cusp = true;
      }
    }
    double best_per_step = std::numeric_limits<double>::infinity();
    deep.tipping_point = 1;
    for (const auto& e : deep.entries) {
      const double per_step = e.time_s / e.time_tile;
      if (per_step < best_per_step) {
        best_per_step = per_step;
        deep.tipping_point = e.time_tile;
      }
    }
  }

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

/// Spatial programs: per-call (or fused) kernels, profile-guided version
/// selection, fission candidates under register pressure.
ProgramResult optimize_spatial(const ir::Program& prog,
                               const gpumodel::DeviceSpec& dev,
                               const gpumodel::ModelParams& params,
                               const Strategy& strategy, bool allow_fission);

/// Pick the better of the shared-memory and global versions of one stage
/// list, following the Section IV-A guidelines.
KernelChoice choose_version(const ir::Program& prog,
                            const std::vector<ir::BoundStencil>& stages,
                            const gpumodel::DeviceSpec& dev,
                            const gpumodel::ModelParams& params,
                            const Strategy& strategy,
                            std::vector<std::string>* hints) {
  KernelChoice kc;
  std::vector<std::string> names;
  for (const auto& s : stages) names.push_back(s.name);
  kc.name = join(names, "+");

  if (!strategy.use_shared_memory) {
    auto tuned =
        tune_stages(prog, stages, dev, params, strategy, false, hints);
    kc.config = tuned.best.config;
    kc.eval = tuned.best.eval;
    kc.leaderboard = std::move(tuned.leaderboard);
    return kc;
  }

  autotune::TuneResult shm;
  try {
    shm = tune_stages(prog, stages, dev, params, strategy, true, hints);
  } catch (const PlanError& e) {
    // No feasible shared-memory mapping at any block shape (e.g. too many
    // staged arrays at this order): fall back to the global version.
    record_dropped("choose_version", str_cat(kc.name, "/shm"), e);
    if (hints) {
      hints->push_back(
          "no feasible shared-memory mapping: tuning the global version");
    }
    auto gbl =
        tune_stages(prog, stages, dev, params, strategy, false, hints);
    kc.config = gbl.best.config;
    kc.eval = gbl.best.eval;
    kc.leaderboard = std::move(gbl.leaderboard);
    return kc;
  }
  kc.config = shm.best.config;
  kc.eval = shm.best.eval;
  kc.leaderboard = shm.leaderboard;

  if (strategy.profile_guided) {
    try {
      const BuildOptions opts{.use_shared_memory = true,
                              .fuse_internal = true};
      const KernelPlan plan =
          codegen::build_plan(prog, stages, shm.best.config, dev, opts);
      const auto report = profile::profile_plan(plan, dev, params);
      const auto h =
          profile::derive_hints(report, /*iterative=*/false, true);
      if (hints) hints->insert(hints->end(), h.text.begin(), h.text.end());
      // ARTEMIS always materializes the global version as well (it is one
      // of the versions it emits, Section VIII-F); when the shared-memory
      // winner is still bandwidth-bound at DRAM — or merely slower — the
      // global version is kept instead.
      if (h.prefer_global_version || report.bandwidth_bound_anywhere()) {
        auto gbl =
            tune_stages(prog, stages, dev, params, strategy, false, nullptr);
        if (gbl.best.time_s < kc.eval.time_s) {
          kc.config = gbl.best.config;
          kc.eval = gbl.best.eval;
          kc.leaderboard = std::move(gbl.leaderboard);
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

  // Bind each call; groups are contiguous runs of the (topologically
  // ordered) call chain.
  std::vector<ir::BoundStencil> bound;
  {
    int idx = 0;
    for (const auto& step : prog.steps) {
      ARTEMIS_CHECK_MSG(step.kind == ir::Step::Kind::Call,
                        "spatial path expects a flat call list");
      bound.push_back(ir::bind_call(prog, step.call,
                                    str_cat("f", idx++, "_")));
    }
  }
  const int n = static_cast<int>(bound.size());

  auto group_stages = [&](int i, int j) {
    return std::vector<ir::BoundStencil>(bound.begin() + i,
                                         bound.begin() + j + 1);
  };

  if (!strategy.allow_dag_fusion || n == 1) {
    for (int i = 0; i < n; ++i) {
      result.kernels.push_back(choose_version(prog, group_stages(i, i), dev,
                                              params, strategy,
                                              &result.hints));
    }
  } else if (!strategy.partition_dag) {
    // Maxfuse-only (STENCILGEN): one kernel for the whole chain.
    result.kernels.push_back(choose_version(prog, group_stages(0, n - 1),
                                            dev, params, strategy,
                                            &result.hints));
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
              choose_version(prog, group_stages(i, j), dev, params, strategy,
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
