// artemisc — the ARTEMIS command-line driver.
//
// Reads a stencil DSL file and runs the end-to-end pipeline of Section
// VII: baseline from the pragmas, bottleneck profiling, hierarchical
// autotuning, guideline-driven version selection, fusion scheduling for
// iterate blocks, and fission candidates under register pressure.
//
//   artemisc prog.dsl                       optimize and report
//   artemisc prog.dsl --emit-cuda           print generated CUDA
//   artemisc prog.dsl --profile             per-kernel profile reports
//   artemisc prog.dsl --run                 functional run + checksum
//   artemisc prog.dsl --strategy ppcg       use a baseline generator
//   artemisc prog.dsl --device v100         target the V100 model
//   artemisc prog.dsl --emit-candidates     print fission candidate DSL
//   artemisc prog.dsl --compare             all five generators (Fig. 5 row)
//   artemisc prog.dsl --trace t.json        Chrome/Perfetto trace of the run
//   artemisc prog.dsl --report r.json       machine-readable run report
//   artemisc prog.dsl --summary             human-readable telemetry summary
//   artemisc prog.dsl --metrics m.json      measured metrics + model-vs-
//                                           measured divergence
//   artemisc --verify                       property-based differential fuzz
//   artemisc prog.dsl --verify              verify one program only

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "artemis/autotune/search.hpp"
#include "artemis/baselines/baselines.hpp"
#include "artemis/codegen/cuda_emitter.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/driver/context.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/metrics/compare.hpp"
#include "artemis/metrics/metrics.hpp"
#include "artemis/profile/profiler.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/storage/plan_store.hpp"
#include "artemis/storage/vfs.hpp"
#include "artemis/telemetry/report.hpp"
#include "artemis/telemetry/run_sinks.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "artemis/telemetry/trace_sink.hpp"
#include "artemis/verify/verify.hpp"

using namespace artemis;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <file.dsl>\n"
               "       [--strategy artemis|ppcg|stencilgen|global|"
               "global-stream]\n"
               "       [--device k40|p100|v100|a100|h100]\n"
               "       [--emit-cuda]          print the generated CUDA\n"
               "       [--profile]            per-kernel OI/roofline report\n"
               "       [--run]                functional run + checksum\n"
               "       [--emit-candidates]    print fission candidate DSL\n"
               "       [--compare]            all five generators (Fig. 5 "
               "row)\n"
               "       [--store dir]          durable content-addressed plan "
               "store\n"
               "       [--journal file]       crash-safe tuning journal "
               "(WAL)\n"
               "       [--resume]             replay a prior journal before "
               "tuning\n"
               "       [--fault-spec spec]    inject faults, e.g. "
               "crash=0.2,timeout=0.05,seed=42\n"
               "                              (fs.fail/fs.enospc/fs.short/"
               "fs.crash_at hit the store)\n"
               "       [--jobs N]             simulator parallelism (default: "
               "hardware threads;\n"
               "                              tuning runs serially, same "
               "plan for any N)\n"
               "       [--trace out.json]     Chrome/Perfetto trace-event "
               "file\n"
               "       [--report out.json]    machine-readable run report\n"
               "       [--summary]            human-readable telemetry "
               "summary\n"
               "       [--metrics out.json]   measured per-stage metrics + "
               "model-vs-\n"
               "                              measured divergence (clamped "
               "domain)\n"
               "       [--verify]             property-based differential "
               "fuzzing\n"
               "                              (no <file.dsl>: random sweep; "
               "with one:\n"
               "                              verify that program only)\n"
               "       [--seed-count N]       verify: random programs to "
               "draw (50)\n"
               "       [--verify-seed S]      verify: base seed for the "
               "sweep\n"
               "       [--property name]      verify: run one family "
               "(repeatable)\n"
               "       [--corpus dir]         verify: write minimized "
               "reproducers here\n"
               "       [--no-shrink]          verify: keep failures "
               "unminimized\n",
               argv0);
  return 2;
}

/// The --metrics measurement domain: a copy of the program with every
/// size parameter clamped to [8, 64]. Counting-mode execution sweeps
/// every point of every stage, so paper-size domains (320^3 x 16 steps)
/// are clamped to something a CLI run measures in milliseconds; the
/// model is evaluated on the same clamped plans, so the comparison stays
/// apples-to-apples.
ir::Program clamp_metrics_domain(const ir::Program& prog) {
  ir::Program out = prog;
  for (auto& p : out.params) {
    p.value = std::max<std::int64_t>(8, std::min<std::int64_t>(p.value, 64));
  }
  return out;
}

/// Measure one kernel of the chosen schedule on the clamped domain and
/// confront it with the analytic model's prediction for the same plan.
metrics::KernelMetricsReport measure_kernel(
    const driver::KernelChoice& k, const gpumodel::DeviceSpec& dev,
    const gpumodel::ModelParams& params, const sim::ExecOptions& base) {
  metrics::KernelMetricsReport rep;
  rep.kernel = k.name;
  rep.invocations = k.invocations;

  driver::KernelRecipe recipe = k.recipe;
  recipe.program = clamp_metrics_domain(recipe.program);
  ir::Program plan_prog;
  const auto plan = driver::kernel_plan(recipe, k.config, dev, &plan_prog);
  sim::GridSet gs = sim::GridSet::from_program(plan_prog, 1);
  rep.measured = metrics::measure_plan(plan, gs, dev, base);
  rep.predicted = gpumodel::evaluate(plan, dev, params).counters;
  rep.delta = metrics::compare_counters(rep.predicted, rep.measured);

  // Rank correlation: rerank the tuning leaderboard by measured traffic.
  // Model times are re-evaluated on the clamped plans so both rankings
  // describe the same domain.
  if (k.leaderboard.size() >= 2) {
    std::vector<double> model_times, measured_times;
    for (const auto& cand : k.leaderboard) {
      codegen::KernelConfig cfg = cand.config;
      cfg.time_tile = k.config.time_tile;
      try {
        ir::Program cprog;
        const auto cplan = driver::kernel_plan(recipe, cfg, dev, &cprog);
        const auto ev = gpumodel::evaluate(cplan, dev, params);
        if (!ev.valid) continue;
        sim::GridSet cgs = sim::GridSet::from_program(cprog, 1);
        const auto pm = metrics::measure_plan(cplan, cgs, dev, base);
        metrics::RankEntry e;
        e.config = autotune::serialize_config(cfg);
        e.model_time_s = ev.time_s;
        e.measured_time_s = metrics::measured_roofline_s(pm, dev);
        model_times.push_back(e.model_time_s);
        measured_times.push_back(e.measured_time_s);
        rep.ranking.push_back(std::move(e));
      } catch (const PlanError&) {
        // A runner-up that cannot build on the clamped domain drops out
        // of the ranking (it was feasible on the full domain only).
      }
    }
    if (rep.ranking.size() >= 2) {
      rep.rank_correlation = metrics::spearman(model_times, measured_times);
      rep.has_rank_correlation = true;
    }
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  std::string path;
  std::string strategy_name = "artemis";
  std::string device_name = "p100";
  std::string store_path;
  std::string journal_path, fault_spec;
  std::string trace_path, report_path, metrics_path;
  bool emit_cuda = false, profile = false, run = false, candidates = false;
  bool compare = false, summary = false, resume = false;
  bool verify_mode = false;
  verify::VerifyOptions vopts;
  int jobs = 0;  // 0 = hardware concurrency; the plan is jobs-invariant

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy" && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (arg == "--device" && i + 1 < argc) {
      device_name = argv[++i];
    } else if (arg == "--emit-cuda") {
      emit_cuda = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--run") {
      run = true;
    } else if (arg == "--emit-candidates") {
      candidates = true;
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--journal" && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      try {
        jobs = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        jobs = -1;
      }
      if (jobs < 1) {
        std::fprintf(stderr, "artemisc: --jobs expects an integer >= 1\n");
        return 2;
      }
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--verify") {
      verify_mode = true;
    } else if (arg == "--seed-count" && i + 1 < argc) {
      try {
        vopts.seed_count = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        vopts.seed_count = -1;
      }
      if (vopts.seed_count < 0) {
        std::fprintf(stderr, "artemisc: --seed-count expects an integer "
                             ">= 0\n");
        return 2;
      }
    } else if (arg == "--verify-seed" && i + 1 < argc) {
      try {
        vopts.base_seed = std::stoull(argv[++i]);
      } catch (const std::exception&) {
        std::fprintf(stderr, "artemisc: --verify-seed expects an integer\n");
        return 2;
      }
    } else if (arg == "--property" && i + 1 < argc) {
      const std::string name = argv[++i];
      const auto p = verify::property_by_name(name);
      if (!p) {
        std::fprintf(stderr, "artemisc: unknown property '%s' (families:",
                     name.c_str());
        for (const auto q : verify::all_properties()) {
          std::fprintf(stderr, " %s", verify::property_name(q));
        }
        std::fprintf(stderr, ")\n");
        return 2;
      }
      vopts.properties.push_back(*p);
    } else if (arg == "--corpus" && i + 1 < argc) {
      vopts.corpus_dir = argv[++i];
    } else if (arg == "--no-shrink") {
      vopts.shrink = false;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else {
      path = arg;
    }
  }
  if (verify_mode) {
    try {
      verify::VerifyReport rep;
      if (path.empty()) {
        rep = verify::run_verify(vopts);
      } else {
        std::ifstream in(path);
        if (!in) throw Error(str_cat("cannot open '", path, "'"));
        std::ostringstream buf;
        buf << in.rdbuf();
        rep = verify::verify_program(dsl::parse(buf.str()), vopts);
      }
      std::printf("%s", rep.summary().c_str());
      return rep.ok() ? 0 : 1;
    } catch (const Error& e) {
      std::fprintf(stderr, "artemisc: error: %s\n", e.what());
      return 1;
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "artemisc: --resume requires --journal <file>\n");
    return 2;
  }

  // Sinks with scope-exit flushing: a run that throws below still leaves
  // valid (truncated but parseable) JSON at every requested path, marked
  // "completed": false. Constructing the sinks enables telemetry when
  // any sink asked for it.
  telemetry::RunSinks sinks(
      {trace_path, report_path, metrics_path, summary});

  try {
    std::ifstream in(path);
    if (!in) throw Error(str_cat("cannot open '", path, "'"));
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();

    const auto dev = driver::device_by_name(device_name);
    const gpumodel::ModelParams params;
    auto strat = driver::strategy_by_name(strategy_name);

    // Simulator parallelism. 0 resolves to hardware concurrency; the
    // tuner runs serially, so the chosen plan is identical for every
    // value and --jobs only changes the simulator's wall-clock time.
    set_default_jobs(jobs);

    // --metrics reranks the tuning leaderboard by measured traffic; keep
    // enough runners-up around for the rank correlation to mean
    // something.
    if (!metrics_path.empty()) {
      strat.tune.top_k = std::max(strat.tune.top_k, 10);
    }

    // Fault injection: the CLI flag overrides any ARTEMIS_FAULT_SPEC the
    // environment installed at process start.
    if (!fault_spec.empty()) {
      robust::install_fault_plan(robust::parse_fault_spec(fault_spec));
      std::printf("fault injection armed: %s\n", fault_spec.c_str());
    }

    // Every durable artifact (plan store, journal) writes through one
    // Vfs. When the installed fault plan carries fs.* keys, that Vfs
    // injects filesystem faults deterministically.
    storage::Vfs* vfs = &storage::real_vfs();
    std::unique_ptr<storage::FaultVfs> fault_vfs;
    if (const robust::FaultPlan* plan = robust::current_fault_plan();
        plan != nullptr && plan->spec().any_fs_faults()) {
      fault_vfs =
          std::make_unique<storage::FaultVfs>(storage::real_vfs(),
                                              plan->spec());
      vfs = fault_vfs.get();
      std::printf("fs fault injection armed\n");
    }

    // The pipeline proper lives in the reentrant ArtemisContext library
    // (docs/SERVICE.md): it owns the plan store and the Vfs binding, and
    // artemisd drives the very same API — so a daemon-served plan is
    // byte-identical to this one-shot run.
    driver::ContextOptions copts;
    copts.device = dev;
    copts.params = params;
    copts.strategy = strat;
    copts.jobs = jobs;
    copts.vfs = vfs;
    copts.store_root = store_path;
    driver::ArtemisContext ctx(copts);
    const int resolved_jobs = ctx.resolved_jobs();
    sinks.set_meta({path, strat.name, dev.name, resolved_jobs});

    if (compare) {
      const ir::Program prog = ctx.compile(source).program;
      const auto row =
          baselines::compare_generators(path, prog, dev, params);
      std::printf("%-16s %10s %10s\n", "generator", "TFLOPS", "time(ms)");
      for (const auto& g : row.generators) {
        if (g.result) {
          std::printf("%-16s %10.4f %10.4f\n", g.generator.c_str(),
                      g.tflops(), g.result->time_s * 1e3);
        } else {
          std::printf("%-16s %10s  (%s)\n", g.generator.c_str(), "n/a",
                      g.failure.c_str());
        }
      }
      return sinks.finalize() ? 0 : 1;
    }

    std::printf("artemisc: %s, strategy=%s, device=%s, jobs=%d\n",
                path.c_str(), strat.name.c_str(), dev.name.c_str(),
                resolved_jobs);

    // The full pipeline: parse, key, consult the store, tune (journaled
    // when --journal was given), publish. The one-shot CLI reports store
    // hits but still re-optimizes (reuse_stored_plan stays false).
    driver::TuneRequest treq;
    treq.journal_path = journal_path;
    treq.resume = resume;
    const driver::TuneOutcome outcome = ctx.tune(source, treq);
    const driver::ProgramResult& r = outcome.result;
    sinks.set_result(r);

    if (!journal_path.empty()) {
      const auto& jl = outcome.journal_load;
      using JStatus = robust::JournalLoadResult::Status;
      if (jl.status == JStatus::Replayed) {
        std::printf("journal: replaying %zu record(s) from %s%s%s\n",
                    jl.replayed, journal_path.c_str(),
                    jl.torn_tail ? ", healed a torn final line" : "",
                    jl.skipped > 0 ? ", skipped malformed lines" : "");
      } else if (!jl.message.empty()) {
        std::printf("journal: %s; starting fresh\n", jl.message.c_str());
      }
    }

    if (!store_path.empty()) {
      if (outcome.stored.has_value()) {
        std::printf("plan store hit (%s): %s @ %.4f TFLOPS\n",
                    store_path.c_str(), outcome.stored->config.c_str(),
                    outcome.stored->tflops);
      } else {
        std::printf("plan store miss (%s): key %s\n", store_path.c_str(),
                    outcome.compile.plan_key.c_str());
      }
    }

    if (outcome.journal_active) {
      std::printf("journal: %zu record(s) appended, %zu replayed\n",
                  outcome.journal_recorded, outcome.journal_replayed);
    }

    if (outcome.store_put == driver::TuneOutcome::StorePut::Ok) {
      std::printf(
          "plan store updated: %s/objects/%s/%s.plan\n", store_path.c_str(),
          storage::PlanStore::shard_of(outcome.compile.plan_key).c_str(),
          outcome.compile.plan_key.c_str());
    } else if (outcome.store_put == driver::TuneOutcome::StorePut::Failed) {
      std::fprintf(stderr,
                   "artemisc: warning: plan store put failed; the "
                   "previous plan (if any) is intact\n");
    }

    std::printf("\nschedule: %d launch(es), %.4f ms, %.4f TFLOPS\n",
                r.kernel_launches, r.time_s * 1e3, r.tflops);
    for (const auto& k : r.kernels) {
      std::printf("  %-18s x%-3d %9.4f ms  occ %.2f  %s\n", k.name.c_str(),
                  k.invocations, k.eval.time_s * 1e3,
                  k.eval.occupancy.fraction, k.config.to_string().c_str());
    }
    if (!r.fusion_schedule.empty()) {
      std::string sched;
      for (const int x : r.fusion_schedule) sched += str_cat(" ", x);
      std::printf("fusion schedule:%s\n", sched.c_str());
    }
    for (const auto& h : r.hints) std::printf("hint: %s\n", h.c_str());

    if (profile || emit_cuda) {
      for (const auto& k : r.kernels) {
        ir::Program plan_prog;
        const auto plan = driver::kernel_plan(k.recipe, k.config, dev,
                                              &plan_prog);
        if (profile) {
          const auto rep = profile::profile_plan(plan, dev, params);
          std::printf("\n[%s] %s\n", k.name.c_str(),
                      rep.summary().c_str());
        }
        if (emit_cuda) {
          std::printf("\n// ==== %s ====\n%s", k.name.c_str(),
                      codegen::emit_cuda(plan_prog, plan).full().c_str());
        }
      }
    }

    if (candidates) {
      if (r.candidate_dsl.empty()) {
        std::printf("\nno fission candidates were generated\n");
      }
      for (std::size_t i = 0; i < r.candidate_dsl.size(); ++i) {
        std::printf("\n// ---- fission candidate %zu ----\n%s", i,
                    r.candidate_dsl[i].c_str());
      }
    }

    if (!metrics_path.empty()) {
      // Execution observatory: run every chosen kernel in counting mode
      // on the clamped domain, replay its line stream through the L2
      // cache simulation, and confront the measurements with the
      // analytic model (docs/OBSERVABILITY.md).
      std::vector<metrics::KernelMetricsReport> kernel_reports;
      std::printf("\nmetrics (domain clamped to [8, 64] per axis):\n");
      for (const auto& k : r.kernels) {
        try {
          auto rep = measure_kernel(k, dev, params, {});
          std::printf("%s", metrics::comparison_table(rep).c_str());
          kernel_reports.push_back(std::move(rep));
        } catch (const Error& e) {
          std::fprintf(stderr,
                       "artemisc: warning: cannot measure kernel '%s' on "
                       "the clamped domain: %s\n",
                       k.name.c_str(), e.what());
        }
      }
      sinks.set_metrics(
          metrics::metrics_json(path, strat.name, dev.name, kernel_reports));
    }

    if (run) {
      // Functional run of per-step plans against the reference
      // interpreter, via the same library call artemisd serves.
      const auto ro = ctx.run(source);
      std::printf("\nfunctional run:\n");
      for (const auto& check : ro.checks) {
        std::printf("  %-10s checksum %.10g  max|diff vs reference| %g\n",
                    check.array.c_str(), check.checksum,
                    check.max_abs_diff);
      }
    }

    if (!sinks.finalize()) return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "artemisc: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
