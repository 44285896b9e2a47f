// tune-paper: what an artemisc user waits for, and the paper's Section V
// cost. A closed loop with one caller tunes the 11 Table I stencils at
// paper extents through driver::ArtemisContext, with no store, journal or
// cache, at jobs = nproc (artemisc's default).

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "artemis/autotune/deep_tuning.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/driver/context.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/ir/content_hash.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/transform/fusion.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace artemis;

namespace {

struct Input {
  std::string name;
  std::string source;
  bool iterative = false;
};

/// The inputs: all 11 Table I stencils, because the tuning cost and the
/// plan quality (plan_model_tflops) are the paper's results over the whole
/// table. Paper extents, because the tuner's feasibility checks (block vs
/// domain, shared memory per block) depend on them.
std::vector<Input> make_inputs() {
  std::vector<Input> in;
  for (const auto& b : stencils::paper_benchmarks()) {
    in.push_back({b.name, b.dsl(), b.iterative});
  }
  return in;
}

/// A seeded order of the inputs for one pass. The stencils are fixed; the
/// seed only decides which of them runs first, so no stencil always
/// follows the warm-up.
std::vector<std::size_t> pass_order(Rng& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  shuffle(order, rng);
  return order;
}

/// A PlanFactory the benchmark owns: wraps codegen::build_plan with the
/// stage list and build options driver::optimize_program uses, and times and
/// counts every build. It also keeps a few of the plans it built so the
/// gpumodel layer can be timed on real tuner plans.
class TimedFactory {
 public:
  TimedFactory(const ir::Program& prog, std::vector<ir::BoundStencil> stages,
               const gpumodel::DeviceSpec& dev, codegen::BuildOptions opts)
      : prog_(prog), stages_(std::move(stages)), dev_(dev), opts_(opts) {}

  autotune::PlanFactory factory(std::int64_t parent_span) {
    return [this, parent_span](const codegen::KernelConfig& cfg) {
      Span span("codegen.build_plan", parent_span);
      try {
        codegen::KernelPlan plan =
            codegen::build_plan(prog_, stages_, cfg, dev_, opts_);
        record(span.stop(), false);
        const std::lock_guard<std::mutex> lock(mu_);
        if (sample_.size() < kSample) sample_.push_back(plan);
        return plan;
      } catch (const PlanError&) {
        record(span.stop(), true);
        throw;
      }
    };
  }

  void reset_counts() {
    calls_ = 0;
    errors_ = 0;
    ns_ = 0;
  }
  std::int64_t calls() const { return calls_; }
  std::int64_t errors() const { return errors_; }
  double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }
  std::vector<codegen::KernelPlan> sample() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return sample_;
  }
  const ir::Program& program() const { return prog_; }
  const std::vector<ir::BoundStencil>& stages() const { return stages_; }
  const codegen::BuildOptions& options() const { return opts_; }

 private:
  static constexpr std::size_t kSample = 48;

  void record(double seconds, bool error) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (error) errors_.fetch_add(1, std::memory_order_relaxed);
    ns_.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                  std::memory_order_relaxed);
  }

  const ir::Program& prog_;
  const std::vector<ir::BoundStencil> stages_;
  const gpumodel::DeviceSpec& dev_;
  const codegen::BuildOptions opts_;
  std::atomic<std::int64_t> calls_{0}, errors_{0}, ns_{0};
  mutable std::mutex mu_;  ///< guards sample_
  std::vector<codegen::KernelPlan> sample_;
};

/// The stage list optimize_program tunes first for a program: every call of a
/// spatial program bound as one fused group (the fusion search's [0, n)
/// group), or the iterate body time-tiled at x = 1.
struct PaperKernel {
  ir::Program prog;
  std::vector<ir::BoundStencil> stages;
};

PaperKernel paper_kernel(const ir::Program& prog) {
  if (prog.steps.size() == 1 &&
      prog.steps[0].kind == ir::Step::Kind::Iterate) {
    transform::TimeTiledKernel tt =
        transform::time_tile_iterate(prog, prog.steps[0], 1);
    return {std::move(tt.augmented), std::move(tt.stages)};
  }
  PaperKernel k{prog, {}};
  int idx = 0;
  for (const auto& step : k.prog.steps) {
    k.stages.push_back(
        ir::bind_call(k.prog, step.call, str_cat("f", idx++, "_")));
  }
  return k;
}

/// optimize_program's per-kernel tuning set-up (its tune_stages), replayed
/// from outside: the pragma seed, the strategy's retime/fold flags, and the
/// profile-guided hints of the baseline plan.
struct TuneSetup {
  codegen::KernelConfig seed;
  autotune::TuneOptions opts;
};

TuneSetup tune_setup(const TimedFactory& f, const driver::Strategy& strategy,
                     const gpumodel::DeviceSpec& dev,
                     const gpumodel::ModelParams& params) {
  TuneSetup s;
  s.seed = codegen::config_from_pragma(
      f.program(), f.stages().front().pragma,
      static_cast<int>(f.program().iterators.size()));
  s.seed.retime = strategy.allow_retime;
  s.seed.fold = strategy.allow_fold;
  s.opts = strategy.tune;
  try {
    const codegen::KernelPlan base = codegen::build_plan(
        f.program(), f.stages(), s.seed, dev, f.options());
    const auto report = profile::profile_plan(base, dev, params);
    const auto hints = profile::derive_hints(
        report, /*iterative=*/false, f.options().use_shared_memory);
    s.opts.disable_unroll = hints.disable_unroll;
    const double oi = static_cast<double>(base.info.flops_per_point) /
                      (8.0 * std::max(base.info.num_io_arrays, 1));
    s.opts.theoretically_bandwidth_bound = oi < dev.balance_dram();
  } catch (const Error&) {
    // An infeasible or failing baseline: tune unguided, as
    // optimize_program does.
  }
  return s;
}

/// Step 2 of the traced run: each input replayed one level below
/// ArtemisContext::tune, every call wrapped in a span and timed.
void replay_layers(const std::vector<Input>& inputs,
                   const std::vector<std::size_t>& order,
                   const driver::ArtemisContext& ctx, int jobs,
                   Report& report) {
  const auto& dev = ctx.device();
  const gpumodel::ModelParams params = ctx.options().params;
  const driver::Strategy& strategy = ctx.strategy();
  Tally compile, parse, hash, analyze, evaluate, profile_acc;
  double optimize_s = 0, deep_tune_s = 0;
  double ht1_s = 0, htn_s = 0, build_s = 0;
  std::int64_t evaluated = 0, infeasible = 0, spill = 0, builds = 0,
               build_errors = 0;

  for (const std::size_t i : order) {
    const Input& in = inputs[i];
    {
      Span s("driver.compile");
      (void)ctx.compile(in.source);
      compile.add(s.stop());
    }
    ir::Program prog;
    {
      Span s("dsl.parse");
      prog = dsl::parse(in.source);
      parse.add(s.stop());
    }
    {
      Span s("ir.content_hash");
      (void)ir::content_hash(prog);
      hash.add(s.stop());
    }
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind != ir::ExecStep::Kind::Stencil) continue;
      Span s("ir.analyze");
      (void)ir::analyze(prog, step.stencil);
      analyze.add(s.stop());
    }
    {
      driver::Strategy st = strategy;
      st.tune.jobs = jobs;
      Span s("driver.optimize_program");
      (void)driver::optimize_program(prog, dev, params, st);
      optimize_s += s.stop();
    }

    // hierarchical_tune on the paper kernel, at jobs 1 then at jobs nproc,
    // with the timed factory. Shared memory first, the global version when
    // no shared-memory mapping builds (optimize_program's fallback).
    const PaperKernel pk = paper_kernel(prog);
    autotune::TuneResult r1, rn;
    TimedFactory* used = nullptr;
    std::unique_ptr<TimedFactory> f;
    for (const bool shm : {true, false}) {
      f = std::make_unique<TimedFactory>(
          pk.prog, pk.stages, dev,
          codegen::BuildOptions{.use_shared_memory = shm,
                                .fuse_internal = true});
      const TuneSetup ts = tune_setup(*f, strategy, dev, params);
      try {
        autotune::TuneOptions o1 = ts.opts;
        o1.jobs = 1;
        f->reset_counts();
        {
          Span s("autotune.hierarchical_tune");
          r1 = autotune::hierarchical_tune(f->factory(s.id()), ts.seed, dev,
                                           params, o1);
          ht1_s += s.stop();
        }
        build_s += f->seconds();
        builds += f->calls();
        build_errors += f->errors();
        autotune::TuneOptions on = ts.opts;
        on.jobs = jobs;
        {
          Span s("autotune.hierarchical_tune");
          rn = autotune::hierarchical_tune(f->factory(s.id()), ts.seed, dev,
                                           params, on);
          htn_s += s.stop();
        }
        used = f.get();
        break;
      } catch (const PlanError&) {
        continue;
      }
    }
    if (used == nullptr) {
      report.op(false, str_cat(in.name, ": no feasible paper kernel"));
      continue;
    }
    // Job count must not change the result.
    report.op(autotune::serialize_config(r1.best.config) ==
                      autotune::serialize_config(rn.best.config) &&
                  r1.best.time_s == rn.best.time_s,
              str_cat(in.name, ": jobs 1 and jobs ", jobs,
                      " chose different plans"));
    evaluated += r1.total_evaluated();
    infeasible += r1.infeasible;
    spill += r1.skipped_spilling;

    for (const auto& plan : used->sample()) {
      Span s("gpumodel.evaluate");
      (void)gpumodel::evaluate(plan, dev, params);
      evaluate.add(s.stop());
    }
    {
      const codegen::KernelPlan best = codegen::build_plan(
          used->program(), used->stages(), r1.best.config, dev,
          used->options());
      Span s("profile.profile_plan");
      (void)profile::profile_plan(best, dev, params);
      profile_acc.add(s.stop());
    }
    if (in.iterative) {
      autotune::DeepTuneOptions dopts;
      dopts.max_time_tile = strategy.max_time_tile;
      dopts.tune = strategy.tune;
      dopts.tune.jobs = jobs;
      Span s("autotune.deep_tune");
      try {
        (void)autotune::deep_tune(prog, prog.steps[0], dev, params, dopts);
      } catch (const PlanError&) {
        // Deeper fusion ran out of resources: deep_tune stops there (the
        // optimizer's own loop breaks at the same point).
      }
      deep_tune_s += s.stop();
    }
  }

  report.layer_detail("driver.compile_us", compile.mean_s() * 1e6, "us");
  report.layer_detail("driver.optimize_s", optimize_s, "s");
  report.layer_detail("dsl.parse_us", parse.mean_s() * 1e6, "us");
  report.layer_detail("ir.hash_us", hash.mean_s() * 1e6, "us");
  report.layer_detail("ir.analyze_us", analyze.mean_s() * 1e6, "us");
  report.layer_detail("autotune.cands_per_s",
                      static_cast<double>(evaluated + infeasible) / htn_s,
                      "1/s");
  report.layer_detail("autotune.evaluated", static_cast<double>(evaluated),
                      "count");
  report.layer_detail("autotune.infeasible", static_cast<double>(infeasible),
                      "count");
  report.layer_detail("autotune.spill_skipped", static_cast<double>(spill),
                      "count");
  report.layer_detail("autotune.par_speedup", ht1_s / htn_s, "x");
  report.layer_detail("autotune.deep_tune_s", deep_tune_s, "s");
  report.layer_detail("codegen.build_us",
                      builds ? build_s / static_cast<double>(builds) * 1e6 : 0,
                      "us");
  report.layer_detail("codegen.build_calls", static_cast<double>(builds),
                      "count");
  // Shares of hierarchical_tune time at jobs 1, where the tuner runs on
  // one thread and the factory's spans are its children: codegen's self
  // time is measured; gpumodel's is the evaluate cost measured on the
  // factory's own plans times the evaluations the tuner reports.
  report.layer_detail("codegen.build_share", build_s / ht1_s, "ratio");
  report.layer_detail("codegen.plan_error_ratio",
                      builds ? static_cast<double>(build_errors) /
                                   static_cast<double>(builds)
                             : 0,
                      "ratio");
  report.layer_detail("gpumodel.evaluate_us", evaluate.mean_s() * 1e6, "us");
  report.layer_detail("gpumodel.evaluate_share",
                      evaluate.mean_s() * static_cast<double>(evaluated) /
                          ht1_s,
                      "ratio");
  report.layer_detail("profile.profile_us", profile_acc.mean_s() * 1e6, "us");

  // Tracing overhead on the calls that carry most spans: hierarchical_tune
  // at jobs 1, one span per plan build, on the first paper stencil
  // (7pt-smoother, the cheapest to tune).
  const PaperKernel pk = paper_kernel(dsl::parse(inputs.front().source));
  TimedFactory f(pk.prog, pk.stages, dev,
                 codegen::BuildOptions{.use_shared_memory = true,
                                       .fuse_internal = true});
  TuneSetup ts = tune_setup(f, strategy, dev, params);
  ts.opts.jobs = 1;
  report.metric("trace.overhead_share", measured_trace_overhead(5, [&] {
                  Span s("autotune.hierarchical_tune");
                  (void)autotune::hierarchical_tune(f.factory(s.id()), ts.seed,
                                                    dev, params, ts.opts);
                }),
                "ratio");
}

}  // namespace

int run_tune_paper(const Args& args, Report& report) {
  const int jobs = nproc();
  set_default_jobs(jobs);
  driver::ContextOptions copts;
  copts.jobs = jobs;

  // Set-up: the context and the 11 sources; timed again, on spare copies,
  // before each tune of the warm-up pass.
  SetupTimes setup;
  std::unique_ptr<driver::ArtemisContext> ctx;
  std::vector<Input> inputs;
  const auto set_up = [&](std::unique_ptr<driver::ArtemisContext>& c,
                          std::vector<Input>& in) {
    setup.time([&] {
      c = std::make_unique<driver::ArtemisContext>(copts);
      in = make_inputs();
    });
  };
  set_up(ctx, inputs);
  Rng rng(args.seed);

  // Warm-up: one untimed pass at the same job count. Its plans are the
  // reference every timed pass must reproduce byte for byte.
  std::vector<std::string> reference(inputs.size());
  std::vector<double> plan_tflops(inputs.size());
  for (const std::size_t i : pass_order(rng, inputs.size())) {
    for (int r = 0; r < 3; ++r) {
      std::unique_ptr<driver::ArtemisContext> spare;
      std::vector<Input> spare_inputs;
      set_up(spare, spare_inputs);
    }
    const driver::TuneOutcome out = ctx->tune(inputs[i].source);
    reference[i] = out.plan_bytes;
    plan_tflops[i] = out.result.tflops;
  }

  // Timed passes: at least one; more while the run's time lasts. A traced
  // run times one pass with spans around each tune call.
  std::vector<double> pass_s;
  std::map<std::string, std::vector<double>> per_stencil;
  const auto t0 = Clock::now();
  std::vector<double> pass_cpu_s, pass_steal_s;
  do {
    const auto tp = Clock::now();
    const double cpu0 = process_cpu_s(), steal0 = host_steal_s();
    for (const std::size_t i : pass_order(rng, inputs.size())) {
      Span s("driver.tune");
      const driver::TuneOutcome out = ctx->tune(inputs[i].source);
      per_stencil[inputs[i].name].push_back(s.stop());
      report.op(out.plan_bytes == reference[i],
                str_cat(inputs[i].name, ": plan bytes differ from the "
                                        "warm-up pass"));
    }
    pass_s.push_back(seconds_since(tp));
    pass_cpu_s.push_back(process_cpu_s() - cpu0);
    pass_steal_s.push_back(host_steal_s() - steal0);
  } while (!args.trace && seconds_since(t0) < args.seconds);

  report.detail("jobs", Json(jobs));
  report.detail("passes", Json(static_cast<std::int64_t>(pass_s.size())));
  const auto array = [](const std::vector<double>& v) {
    Json a = Json::array();
    for (const double x : v) a.push_back(Json(x));
    return a;
  };
  report.detail("pass_s", array(pass_s));
  report.detail("pass_cpu_s", array(pass_cpu_s));
  report.detail("pass_steal_s", array(pass_steal_s));
  report.detail("plan_tflops", array(plan_tflops));

  // A round is one pass over the 11 stencils. Its cost is gated as CPU
  // time, which leaves out the host's steal: at jobs = nproc every pass
  // waits for the slowest vCPU, and one shared 4-vCPU KVM guest lost up to
  // 19 s of vCPU time out of a 21 s pass. Wall times (pass_s, and each
  // stencil's median tune in stencil_tune_ms) stay in the record.
  Json stencil_ms = Json::object();
  for (const auto& [name, s] : per_stencil) {
    stencil_ms.set(name, Json(median(s) * 1e3));
  }
  report.detail("stencil_tune_ms", std::move(stencil_ms));
  if (!args.trace) {
    const auto passes = static_cast<double>(pass_s.size());
    report.metric("round_cpu_s", sum(pass_cpu_s) / passes, "s");
    report.metric("plan_model_tflops", geomean(plan_tflops), "TFLOP/s");
    report.metric("setup_s", setup.seconds(), "s");
    return 0;
  }

  // Every tune here runs the tuner, with no store, cache or journal: the
  // durable layers write nothing per cold tune.
  report.metric("robust.journal_bytes_per_cold", 0, "B");
  report.metric("storage.syncs_per_cold", 0, "count");
  report.layer_detail("driver.pass_s", pass_s.front(), "s");
  for (const auto& in : inputs) {
    report.layer_detail(str_cat("driver.tune_s.", in.name),
                        median(per_stencil[in.name]), "s");
  }
  replay_layers(inputs, pass_order(rng, inputs.size()), *ctx, jobs, report);
  return 0;
}

}  // namespace perfbench
