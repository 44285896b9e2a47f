// sim-measure: the functional simulator and the measurement observatory,
// with one caller and no tuner. Fixed-config global-memory plans, built as
// bench/sim_throughput builds them, run on the native engine at 1 worker
// and at nproc workers; metrics::measure_plan runs at 1 worker on a seeded
// sample of buildable candidate configs.

#include <sched.h>

#include <cstring>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/hash.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/metrics/metrics.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace artemis;

namespace {

/// The kernels and extents. Two memory-bound kernels on grids far larger
/// than a core's L2 (160^3: 33 MB per array) and two compute-bound kernels
/// with many arrays (64^3: 2 MB per array, tens of arrays), so that engine
/// gains and memory-wall gains show apart. The compute-bound extent keeps
/// one 1-worker call near 0.2 s, so a 20 s run turns through the kernels
/// about ten times. `check_extent` is the size at which the slow engines
/// (bytecode, the reference) are checked; `measure_extent` the domain of
/// the measurements: artemisc --metrics clamps every extent to [8, 64],
/// and the two compute-bound kernels are made smaller still so that one
/// measurement stays near 0.2 s.
struct KernelSpec {
  const char* name;
  std::int64_t extent;
  std::int64_t check_extent;
  std::int64_t measure_extent;
};
constexpr KernelSpec kKernels[] = {
    {"7pt-smoother", 160, 48, 64},
    {"helmholtz", 160, 48, 64},
    {"hypterm", 64, 32, 24},
    {"rhs4center", 64, 32, 20},
};
constexpr int kSampleConfigs = 3;  ///< measured configs per kernel
constexpr int kParReps = 2;        ///< nproc-worker executions per turn

/// One time step of a kernel with its fixed-config plans.
struct Kernel {
  std::string name;
  ir::Program prog;
  std::vector<codegen::KernelPlan> plans;
  std::int64_t points = 0;  ///< stencil applications per execution
};

Kernel make_kernel(const std::string& name, std::int64_t extent,
                   const codegen::KernelConfig& cfg = {}) {
  const auto dev = gpumodel::p100();
  Kernel k{name, stencils::benchmark_program(name, extent, 1), {}, 0};
  codegen::BuildOptions gopts;
  gopts.use_shared_memory = false;
  for (const auto& step : ir::flatten_steps(k.prog)) {
    if (step.kind != ir::ExecStep::Kind::Stencil) continue;
    std::vector<std::string> args;
    for (const auto& p : step.stencil.def->params) {
      args.push_back(step.stencil.binding.at(p));
    }
    k.plans.push_back(codegen::build_plan_for_call(
        k.prog, ir::StencilCall{step.stencil.name, std::move(args)}, cfg, dev,
        gopts));
    const auto& d = k.plans.back().domain;
    k.points += d.x * d.y * d.z;
  }
  return k;
}

/// Executes every plan of the kernel once; returns points computed.
std::int64_t execute(const Kernel& k, sim::GridSet& gs,
                     const sim::ExecOptions& opts) {
  std::int64_t points = 0;
  for (const auto& plan : k.plans) {
    Span s("sim.execute_plan");
    points += sim::execute_plan(plan, gs, opts).computed_points;
  }
  return points;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The program's output arrays are memcmp-identical in `a` and `b`.
bool same_outputs(const ir::Program& prog, const sim::GridSet& a,
                  const sim::GridSet& b) {
  for (const auto& out : prog.copyout) {
    if (!same_bytes(a.grid(out).raw(), b.grid(out).raw())) return false;
  }
  return true;
}

/// Every array is memcmp-identical in `a` and `b`. Runs that execute the
/// plans of one time step but not its swap leave an iterative stencil's
/// output (its copyout array) untouched, so they compare all arrays: the
/// ones the plans write and the inputs they must leave alone.
bool same_grids(const sim::GridSet& a, const sim::GridSet& b) {
  if (a.grids().size() != b.grids().size()) return false;
  for (auto ia = a.grids().begin(), ib = b.grids().begin();
       ia != a.grids().end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_bytes(ia->second->raw(),
                                              ib->second->raw())) {
      return false;
    }
  }
  return true;
}

/// A digest of every array's bytes, to check a later run against an
/// earlier one without keeping a copy of full-size grids.
std::string digest(const sim::GridSet& gs) {
  ContentHasher h;
  for (const auto& [name, g] : gs.grids()) {
    h.update(name);
    h.update(g->raw().data(), g->raw().size() * sizeof(double));
  }
  return h.hex_digest();
}

sim::ExecOptions engine(sim::SimEngine e, int jobs) {
  sim::ExecOptions o;
  o.engine = e;
  o.jobs = jobs;
  return o;
}

/// Native at 1 and at `jobs` workers and bytecode give memcmp-identical
/// grids, equal to run_program_reference, at the check extent. These are
/// the kernel's first executions: returns how much longer the very first
/// one, which compiles the plans' statements, took than the next, equal one.
double check_engines(const KernelSpec& spec, std::uint64_t seed, int jobs,
                     Report& report) {
  const Kernel k = make_kernel(spec.name, spec.check_extent);
  const sim::GridSet init = sim::GridSet::from_program(k.prog, seed);
  sim::GridSet ref = init.clone();
  sim::run_program_reference(k.prog, ref);
  const auto run = [&](sim::SimEngine e, int j) {
    sim::GridSet gs = init.clone();
    const auto t0 = Clock::now();
    std::size_t next = 0;
    for (const auto& step : ir::flatten_steps(k.prog)) {
      if (step.kind == ir::ExecStep::Kind::Swap) {
        gs.swap(step.swap.a, step.swap.b);
        continue;
      }
      sim::execute_plan(k.plans.at(next++), gs, engine(e, j));
    }
    const double s = seconds_since(t0);
    report.op(same_outputs(k.prog, gs, ref),
              str_cat(spec.name, ": ", sim::engine_name(e), " at jobs ", j,
                      " differs from the reference"));
    return s;
  };
  const double first = run(sim::SimEngine::Native, 1);
  const double second = run(sim::SimEngine::Native, 1);
  run(sim::SimEngine::Native, jobs);
  run(sim::SimEngine::Bytecode, 1);
  return first - second;
}

/// Seeded sample of buildable candidate configs on the measure domain.
std::vector<Kernel> measure_sample(const KernelSpec& spec, Rng& rng) {
  autotune::TuneOptions topts;
  const auto blocks = autotune::candidate_blocks(3, false, topts);
  const auto unrolls = autotune::candidate_unrolls(3, topts);
  std::vector<Kernel> out;
  for (int tries = 0; tries < 200 && static_cast<int>(out.size()) <
                                         kSampleConfigs; ++tries) {
    codegen::KernelConfig cfg;
    cfg.block = blocks[rng.next_u64() % blocks.size()];
    cfg.unroll = unrolls[rng.next_u64() % unrolls.size()];
    try {
      out.push_back(make_kernel(spec.name, spec.measure_extent, cfg));
    } catch (const PlanError&) {
      // Not buildable at this size: draw again.
    }
  }
  ARTEMIS_CHECK_MSG(!out.empty(), "no buildable config for " << spec.name);
  return out;
}

/// Pins the calling thread, and threads it starts, to one CPU until
/// destroyed, then restores the thread's previous CPU mask.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu) {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~PinToCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Times one execution into `tally`.
void timed_execute(const Kernel& k, sim::GridSet& gs,
                   const sim::ExecOptions& o, Tally& tally) {
  const auto t0 = Clock::now();
  const std::int64_t pts = execute(k, gs, o);
  tally.add(seconds_since(t0), static_cast<double>(pts));
}

}  // namespace

int run_sim_measure(const Args& args, Report& report) {
  const int jobs = nproc();
  Rng rng(args.seed);

  // Set-up, seven times, the mean of the middle five reported: programs,
  // plans and grids filled from the seed. One set-up takes long enough
  // (~0.15 s) to span the host's speed changes, so the repetitions can run
  // back to back; with three, the median spread 0.28 over five runs.
  SetupTimes setup;
  std::vector<Kernel> kernels;
  std::vector<sim::GridSet> grids;
  for (int r = 0; r < 7; ++r) {
    kernels.clear();
    grids.clear();
    setup.time([&] {
      for (const auto& spec : kKernels) {
        kernels.push_back(make_kernel(spec.name, spec.extent));
        grids.push_back(
            sim::GridSet::from_program(kernels.back().prog, args.seed));
      }
    });
  }
  std::vector<std::vector<Kernel>> configs;
  for (const auto& spec : kKernels) configs.push_back(measure_sample(spec, rng));
  std::vector<double> first_extra_s;
  for (const auto& spec : kKernels) {
    first_extra_s.push_back(check_engines(spec, args.seed, jobs, report));
  }

  const auto dev = gpumodel::p100();
  const sim::ExecOptions one = engine(sim::SimEngine::Native, 1);
  const sim::ExecOptions par = engine(sim::SimEngine::Native, jobs);
  const sim::ExecOptions base = engine(sim::SimEngine::Bytecode, 1);

  // Native at 1 and at nproc workers give memcmp-identical grids at the
  // timed extents too. Each runs into its own copy of the freshly seeded
  // grids, so a point one of them fails to write cannot keep a value the
  // other wrote.
  std::vector<std::string> ref_digest(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const Kernel& k = kernels[i];
    sim::GridSet at_one = grids[i].clone();
    execute(k, at_one, one);
    execute(k, grids[i], par);
    report.op(same_grids(grids[i], at_one),
              str_cat(k.name, ": native at jobs ", jobs, " differs from jobs 1"));
    ref_digest[i] = digest(at_one);
  }

  // Warm-up: every kernel at nproc workers for 2 s, so all the threads
  // the timed phase uses are busy right before it.
  {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 2.0) {
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        execute(kernels[i], grids[i], par);
      }
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      sim::GridSet gs = sim::GridSet::from_program(configs[i][0].prog, args.seed);
      metrics::measure_plan(configs[i][0].plans[0], gs, dev, base);
    }
  }

  // The timed phase turns through the kernels: for each, one execution at
  // 1 worker, kParReps at nproc workers, then one measure_plan call on the
  // next of its sampled configs. Each metric's samples thus spread over
  // the whole run, and the single-worker calls rotate over the CPUs, so a
  // slow stretch of one host core falls on every metric and every kernel
  // alike instead of deciding one of them. No CPU idles for more than
  // about a second, under the ~2 s after which a 4-vCPU KVM guest parks
  // idle vCPUs and a parallel burst starts at one core's rate.
  //
  // Rates are total work over total time, not medians of per-call rates:
  // on a shared 4-vCPU KVM guest a vCPU runs the same call at one of two
  // speeds about 1.5x apart, switching within a second, and a median of
  // such a sample jumps between the two while the total moves with the
  // time spent in each.
  std::vector<Tally> one_t(kernels.size()), par_t(kernels.size()),
      measure_t(kernels.size());
  const std::vector<int> cpus = allowed_cpus();
  const auto cpu = [&](std::size_t slot) {
    return cpus[slot % cpus.size()];
  };
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  int turns = 0;
  for (int turn = 0; turn < 2 || seconds_since(t0) < args.seconds; ++turn) {
    ++turns;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const Kernel& k = kernels[i];
      {
        PinToCpu pin(cpu(turn + i));
        timed_execute(k, grids[i], one, one_t[i]);
      }
      for (int r = 0; r < kParReps; ++r) {
        timed_execute(k, grids[i], par, par_t[i]);
      }
      // A measured run must leave the grids as a plain run does.
      const Kernel& c = configs[i][turn % configs[i].size()];
      sim::GridSet measured = sim::GridSet::from_program(c.prog, args.seed);
      sim::GridSet plain = measured.clone();
      {
        PinToCpu pin(cpu(turn + i + 2));
        const auto ts = Clock::now();
        Span s("metrics.measure_plan");
        for (const auto& plan : c.plans) {
          metrics::measure_plan(plan, measured, dev, base);
        }
        measure_t[i].add(seconds_since(ts));
      }
      execute(c, plain, base);
      report.op(same_grids(measured, plain),
                str_cat(c.name, ": measure_plan changed the grids"));
    }
  }
  const double timed_s = seconds_since(t0);
  const double timed_cpu_s = process_cpu_s() - cpu0;
  // The timed calls rewrote grids that already held their results, where
  // a skipped point goes unseen. So one more call at nproc workers, on the
  // path the timed calls took, runs into freshly seeded grids and must
  // reproduce the first 1-worker run.
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    sim::GridSet fresh = sim::GridSet::from_program(kernels[i].prog, args.seed);
    execute(kernels[i], fresh, par);
    report.op(digest(fresh) == ref_digest[i],
              str_cat(kernels[i].name, ": native at jobs ", jobs,
                      " after the timed calls differs from jobs 1"));
  }

  std::vector<double> pps1, ppsn, meas;
  Json per = Json::object();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    pps1.push_back(one_t[i].rate());
    ppsn.push_back(par_t[i].rate());
    meas.push_back(measure_t[i].mean_s() * 1e3);
    Json k = Json::object();
    k.set("extent", Json(kKernels[i].extent));
    k.set("turns", Json(one_t[i].calls));
    k.set("pps_1", Json(pps1[i]));
    k.set("pps_n", Json(ppsn[i]));
    k.set("measure_ms", Json(meas[i]));
    per.set(kernels[i].name, std::move(k));
  }
  report.detail("jobs", Json(jobs));
  report.detail("kernels", std::move(per));

  // A round is one turn through the four kernels, including its checks;
  // its cost is gated as CPU time, which leaves out the host's steal. In
  // ten runs made while the host stole vCPU time, the median wall time
  // per turn came out 32% above that of ten earlier runs and its spread
  // was 0.20, while CPU time per turn moved 16% with a spread of 0.07. The
  // wall rates stay in the record (kernels, turn_s).
  // Plan quality covers the plans the P100 model can launch: at the fixed
  // config, rhs4center needs more registers than a P100 thread has, which
  // the simulator does not model.
  report.detail("turn_s", Json(timed_s / turns));
  if (!args.trace) {
    std::vector<double> plan_tflops;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      for (const auto& plan : kernels[i].plans) {
        const gpumodel::KernelEval ev = gpumodel::evaluate(plan, dev);
        if (ev.valid) plan_tflops.push_back(ev.tflops());
      }
    }
    report.metric("round_cpu_s", timed_cpu_s / turns, "s");
    report.metric("plan_model_tflops", geomean(plan_tflops), "TFLOP/s");
    report.metric("setup_s", setup.seconds(), "s");
    return 0;
  }

  // No tuner runs here, and nothing durable is written.
  report.metric("robust.journal_bytes_per_cold", 0, "B");
  report.metric("storage.syncs_per_cold", 0, "count");

  // Per-layer numbers. Native rates come from the timed phase; the slow
  // engines are timed once each at the timed extents.
  std::vector<double> eff, ref_pps;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const Kernel& k = kernels[i];
    report.layer_detail(str_cat("sim.native_pps.", k.name), pps1[i],
                        "points/s");
    report.layer_detail(str_cat("sim.par_pps.", k.name), ppsn[i], "points/s");
    report.layer_detail(str_cat("metrics.measure_ms.", k.name), meas[i], "ms");
    eff.push_back(ppsn[i] / pps1[i] / jobs);
    {
      sim::GridSet gs = sim::GridSet::from_program(k.prog, args.seed);
      Tally bytecode;
      timed_execute(k, gs, base, bytecode);
      report.layer_detail(str_cat("sim.bytecode_pps.", k.name), bytecode.rate(),
                          "points/s");
    }
    sim::GridSet gs = sim::GridSet::from_program(k.prog, args.seed);
    Span s("sim.run_program_reference");
    sim::run_program_reference(k.prog, gs);
    ref_pps.push_back(static_cast<double>(k.points) / s.stop());
  }
  report.layer_detail("sim.par_efficiency", geomean(eff), "ratio");
  // The first call compiles the plans' statements; later calls, at any
  // extent, reuse them (check_engines).
  double first_sum = 0;
  for (const double f : first_extra_s) first_sum += f;
  report.layer_detail("sim.first_call_ms",
                      first_sum / kernels.size() * 1e3, "ms");
  report.layer_detail("sim.reference_pps", geomean(ref_pps), "points/s");

  // Measurement cost split: a plain bytecode run, the same run in counting
  // mode (ExecOptions::trace), and measure_plan, which adds the cache
  // replay after the counting run.
  std::vector<double> overhead, replay;
  for (const auto& sample : configs) {
    const Kernel& k = sample[0];
    const auto& plan = k.plans[0];
    std::vector<double> plain_s, count_s, meas_s;
    for (int rep = 0; rep < 3; ++rep) {
      sim::GridSet g = sim::GridSet::from_program(k.prog, args.seed);
      sim::ExecOptions o = base;
      {
        Span s("sim.execute_plan");
        sim::execute_plan(plan, g, o);
        plain_s.push_back(s.stop());
      }
      sim::PlanTrace trace;
      o.trace = &trace;
      {
        Span s("sim.execute_plan");
        sim::execute_plan(plan, g, o);
        count_s.push_back(s.stop());
      }
      o.trace = nullptr;
      Span s("metrics.measure_plan");
      metrics::measure_plan(plan, g, dev, o);
      meas_s.push_back(s.stop());
    }
    overhead.push_back(median(count_s) / median(plain_s));
    replay.push_back(1.0 - median(count_s) / median(meas_s));
  }
  report.layer_detail("metrics.counting_overhead", geomean(overhead), "x");
  report.layer_detail("metrics.replay_share", geomean(replay), "ratio");

  // A parallel execute_plan builds a fresh pool per call: its fixed cost.
  std::vector<double> pool;
  for (int rep = 0; rep < 200; ++rep) {
    Span s("common.task_pool");
    TaskPool p(jobs);
    p.for_each(jobs, [](std::int64_t) {});
    pool.push_back(s.stop());
  }
  report.layer_detail("common.pool_us", median(pool) * 1e6, "us");

  // Tracing overhead on the call both kinds of run make: one execution of
  // the first kernel at nproc workers.
  report.metric("trace.overhead_share", measured_trace_overhead(10, [&] {
                  execute(kernels[0], grids[0], par);
                }),
                "ratio");
  return 0;
}

}  // namespace perfbench
