#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/driver/context.hpp"
#include "artemis/robust/candidate_runner.hpp"
#include "artemis/robust/errors.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/storage/vfs.hpp"

#ifndef ARTEMIS_EXAMPLES_DIR
#error "build must define ARTEMIS_EXAMPLES_DIR (see tests/CMakeLists.txt)"
#endif

namespace artemis::robust {
namespace {

/// Every test starts and ends with fault injection disarmed: these tests
/// install their own plans, so a plan inherited from ARTEMIS_FAULT_SPEC
/// (the CI fault-injection job installs one process-wide) must not leak
/// in, and nothing must leak out to unrelated suites.
class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_fault_plan(); }
  void TearDown() override { clear_fault_plan(); }

  /// Arm the resilient path with a plan whose site matches nothing, so
  /// the evaluation lambdas alone decide every outcome.
  static void arm_elsewhere() {
    FaultSpec spec;
    spec.crash_p = 1.0;
    spec.site = "no-such-site";
    install_fault_plan(spec);
    ASSERT_TRUE(fault_injection_enabled());
  }

  static gpumodel::KernelEval fake_eval(double time_s) {
    gpumodel::KernelEval ev;
    ev.valid = true;
    ev.time_s = time_s;
    ev.useful_flops = 1000;
    return ev;
  }
};

// ---- fault-spec grammar -----------------------------------------------------

TEST_F(RobustTest, FaultSpecParsesFullGrammar) {
  const FaultSpec s =
      parse_fault_spec("crash=0.25, timeout=0.1, seed=7, site=tuner");
  EXPECT_DOUBLE_EQ(s.crash_p, 0.25);
  EXPECT_DOUBLE_EQ(s.timeout_p, 0.1);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.site, "tuner");
  EXPECT_TRUE(s.any_faults());
  EXPECT_FALSE(FaultSpec{}.any_faults());
}

TEST_F(RobustTest, FaultSpecRejectsGarbage) {
  EXPECT_THROW(parse_fault_spec("explode=1"), Error);
  EXPECT_THROW(parse_fault_spec("crash"), Error);
  EXPECT_THROW(parse_fault_spec("crash=1.5"), Error);
  EXPECT_THROW(parse_fault_spec("crash=-0.1"), Error);
  EXPECT_THROW(parse_fault_spec("seed=notanumber"), Error);
  // Evaluations are analytic: no timing trials to perturb and no clock to
  // stall past, so these keys are unknown like any other.
  EXPECT_THROW(parse_fault_spec("timeout=0.05,stall_ms=4"), Error);
  EXPECT_THROW(parse_fault_spec("perturb=0.1"), Error);
  EXPECT_THROW(parse_fault_spec("jitter=0.3"), Error);
}

// ---- deterministic fault decisions ------------------------------------------

TEST_F(RobustTest, FaultDecisionsAreDeterministic) {
  FaultSpec spec;
  spec.crash_p = 0.5;
  spec.seed = 1234;
  const FaultPlan plan(spec);
  int crashes = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "cfg-" + std::to_string(i);
    const FaultAction a = plan.decide("tuner.eval", key, 0);
    EXPECT_EQ(a, plan.decide("tuner.eval", key, 0)) << "pure function";
    if (a == FaultAction::Crash) ++crashes;
  }
  // ~50% of 200 draws; loose bounds, but a broken hash collapses to 0 or
  // 200.
  EXPECT_GT(crashes, 60);
  EXPECT_LT(crashes, 140);
  // A different attempt produces an independent draw somewhere.
  bool attempt_differs = false;
  for (int i = 0; i < 200 && !attempt_differs; ++i) {
    const std::string key = "cfg-" + std::to_string(i);
    attempt_differs = plan.decide("tuner.eval", key, 0) !=
                      plan.decide("tuner.eval", key, 1);
  }
  EXPECT_TRUE(attempt_differs);
}

TEST_F(RobustTest, SiteFilterScopesFaults) {
  FaultSpec spec;
  spec.crash_p = 1.0;
  spec.site = "tuner.eval";
  const FaultPlan plan(spec);
  EXPECT_EQ(plan.decide("tuner.eval", "k", 0), FaultAction::Crash);
  EXPECT_EQ(plan.decide("profile.plan", "k", 0), FaultAction::None);
  EXPECT_EQ(plan.decide("sim.execute", "k", 0), FaultAction::None);
}

TEST_F(RobustTest, FaultPointDisarmedIsANoOpAndArmedThrows) {
  EXPECT_FALSE(fault_injection_enabled());
  EXPECT_NO_THROW(fault_point("tuner.eval", "k"));

  FaultSpec spec;
  spec.crash_p = 1.0;
  install_fault_plan(spec);
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_THROW(fault_point("tuner.eval", "k"), EvalCrash);

  clear_fault_plan();
  EXPECT_FALSE(fault_injection_enabled());
  EXPECT_NO_THROW(fault_point("tuner.eval", "k"));
}

// ---- error taxonomy ---------------------------------------------------------

TEST_F(RobustTest, ErrorClassDiscriminatesTheTaxonomy) {
  EXPECT_STREQ(error_class(EvalTimeout("t")), "eval_timeout");
  EXPECT_STREQ(error_class(EvalCrash("c")), "eval_crash");
  EXPECT_STREQ(error_class(PlanError("p")), "plan_error");
  EXPECT_STREQ(error_class(Error("e")), "error");
  EXPECT_STREQ(error_class(std::runtime_error("r")), "exception");
}

// ---- candidate runner -------------------------------------------------------

TEST_F(RobustTest, RunnerFastPathEvaluatesOnce) {
  CandidateRunner runner;  // no faults installed
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k", [&] {
    ++calls;
    return fake_eval(2e-3);
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.status, RunStatus::Ok);
  EXPECT_DOUBLE_EQ(out.eval.time_s, 2e-3);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.retries, 0);
  EXPECT_EQ(calls, 1);
}

TEST_F(RobustTest, RunnerFastPathMapsNoResultToInfeasible) {
  CandidateRunner runner;
  const auto out = runner.run(
      "tuner.eval", "k",
      []() -> std::optional<gpumodel::KernelEval> { return std::nullopt; });
  EXPECT_EQ(out.status, RunStatus::Infeasible);
  EXPECT_EQ(out.reason, "infeasible");
}

TEST_F(RobustTest, RunnerRetriesTransientCrashes) {
  arm_elsewhere();
  CandidateRunner runner;
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k", [&] {
    if (++calls < kMaxAttempts) throw EvalCrash("transient");
    return fake_eval(1e-3);
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, kMaxAttempts);
  EXPECT_EQ(out.retries, kMaxAttempts - 1);
  EXPECT_EQ(calls, kMaxAttempts);
  // Success cleared the failure streak: nothing is quarantined.
  EXPECT_EQ(runner.quarantined_count(), 0);
}

TEST_F(RobustTest, RunnerDoesNotRetryDeterministicInfeasibility) {
  arm_elsewhere();
  CandidateRunner runner;
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k",
                              [&]() -> std::optional<gpumodel::KernelEval> {
                                ++calls;
                                return std::nullopt;
                              });
  EXPECT_EQ(out.status, RunStatus::Infeasible);
  EXPECT_EQ(calls, 1) << "infeasibility must not burn retry attempts";
  EXPECT_EQ(runner.quarantined_count(), 0)
      << "infeasibility is not a quarantine debit";
}

TEST_F(RobustTest, RunnerQuarantinesAfterConsecutiveFailures) {
  arm_elsewhere();
  CandidateRunner runner;
  int calls = 0;
  const auto fail = [&]() -> gpumodel::KernelEval {
    ++calls;
    throw EvalCrash("always");
  };
  // One call spends every attempt; the threshold is reached within it.
  static_assert(kQuarantineThreshold <= kMaxAttempts);
  const auto first = runner.run("tuner.eval", "k", fail);
  EXPECT_EQ(first.status, RunStatus::Crash);
  EXPECT_TRUE(first.quarantined_now);
  EXPECT_TRUE(runner.is_quarantined("k"));
  EXPECT_EQ(calls, kQuarantineThreshold);

  const auto second = runner.run("tuner.eval", "k", fail);
  EXPECT_EQ(second.status, RunStatus::Quarantined);
  EXPECT_EQ(calls, kQuarantineThreshold)
      << "quarantined keys are never re-evaluated";
  EXPECT_EQ(runner.quarantined_count(), 1);
  // Other keys are unaffected.
  EXPECT_FALSE(runner.is_quarantined("other"));
}

TEST_F(RobustTest, InjectedTimeoutsExhaustTheAttempts) {
  FaultSpec spec;
  spec.timeout_p = 1.0;  // every attempt draws a timeout
  install_fault_plan(spec);
  CandidateRunner runner;
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k", [&] {
    ++calls;
    return fake_eval(1e-3);
  });
  EXPECT_EQ(out.status, RunStatus::Timeout);
  EXPECT_EQ(out.attempts, kMaxAttempts);
  EXPECT_EQ(calls, kMaxAttempts) << "each attempt evaluates, then times out";
  EXPECT_TRUE(out.quarantined_now);
}

TEST_F(RobustTest, InjectedTimeoutLosesToInfeasibility) {
  // The timeout is raised after the evaluation returns, so an infeasible
  // configuration stays infeasible under any timeout draw.
  FaultSpec spec;
  spec.timeout_p = 1.0;
  install_fault_plan(spec);
  CandidateRunner runner;
  const auto out = runner.run(
      "tuner.eval", "k",
      []() -> std::optional<gpumodel::KernelEval> { return std::nullopt; });
  EXPECT_EQ(out.status, RunStatus::Infeasible);
  EXPECT_EQ(runner.quarantined_count(), 0);
}

TEST_F(RobustTest, SlowEvaluationIsNotATimeout) {
  // Only a drawn timeout fails an attempt: an armed timeout spec whose
  // draw misses this attempt leaves even a slow evaluation alone, however
  // long the host takes.
  FaultSpec spec;
  spec.timeout_p = 0.05;
  spec.seed = 42;
  install_fault_plan(spec);
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string k = "slow-" + std::to_string(i);
    if (!injected_timeout("tuner.eval", k, 0)) key = k;
  }
  CandidateRunner runner;
  const auto out = runner.run("tuner.eval", key, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return fake_eval(1e-3);
  });
  EXPECT_EQ(out.status, RunStatus::Ok) << out.reason;
  EXPECT_EQ(out.attempts, 1);
}

// ---- tuner integration ------------------------------------------------------

class RobustTuneTest : public RobustTest {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;

  autotune::PlanFactory factory_for(const ir::Program& prog) {
    return [&prog, this](const codegen::KernelConfig& cfg) {
      return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg,
                                          dev_);
    };
  }
};

TEST_F(RobustTuneTest, FaultInjectedTuneMatchesFaultFreePlan) {
  // The headline acceptance property: with 20% injected crashes and 5%
  // timeouts (fixed seed), retries recover every candidate and the tuner
  // emits the same best configuration as the fault-free run.
  const auto prog = stencils::benchmark_program("miniflux", 128);
  const auto factory = factory_for(prog);
  const codegen::KernelConfig seed;

  const autotune::TuneResult clean =
      autotune::hierarchical_tune(factory, seed, dev_, params_);

  install_fault_plan(
      parse_fault_spec("crash=0.2,timeout=0.05,seed=42,site=tuner.eval"));
  const autotune::TuneResult faulted =
      autotune::hierarchical_tune(factory, seed, dev_, params_);
  clear_fault_plan();

  EXPECT_EQ(autotune::serialize_config(faulted.best.config),
            autotune::serialize_config(clean.best.config));
  EXPECT_DOUBLE_EQ(faulted.best.time_s, clean.best.time_s);
  EXPECT_FALSE(faulted.degraded);
  // The faults were really firing: some candidates were lost outright
  // (a lost stage-1 candidate can shift the stage-2 sweep slightly, so
  // enumeration counts are not compared — only the winner is).
  EXPECT_GT(faulted.crashed + faulted.timed_out + faulted.quarantined, 0);
  EXPECT_GT(faulted.total_evaluated(), 100);
}

TEST_F(RobustTuneTest, TunerDegradesToSeedWhenEverythingCrashes) {
  // crash=1.0: every evaluation attempt dies, every candidate is lost,
  // and the search degrades to the analytically evaluated seed config
  // instead of throwing. (7pt-smoother: its default seed is itself
  // feasible, so the baseline fallback has something to return.)
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);
  const auto& call = prog.steps[0].body[0].call;
  const autotune::PlanFactory factory =
      [&prog, &call, this](const codegen::KernelConfig& cfg) {
        return codegen::build_plan_for_call(prog, call, cfg, dev_);
      };
  const codegen::KernelConfig seed;
  install_fault_plan(
      parse_fault_spec("crash=1.0,seed=9,site=tuner.eval"));
  const autotune::TuneResult r =
      autotune::hierarchical_tune(factory, seed, dev_, params_);
  clear_fault_plan();
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.best.eval.valid);
  EXPECT_GT(r.crashed, 0);
  EXPECT_GT(r.quarantined, 0);
  EXPECT_EQ(autotune::serialize_config(r.best.config),
            autotune::serialize_config(seed));
}

TEST_F(RobustTuneTest, InfeasibleSpaceStillThrowsPlanError) {
  // Degradation only rescues transient failures: when the space is
  // deterministically infeasible (the seed included), PlanError still
  // propagates exactly as before the resilience layer.
  const autotune::PlanFactory factory =
      [](const codegen::KernelConfig&) -> codegen::KernelPlan {
    throw PlanError("nothing is feasible");
  };
  const codegen::KernelConfig seed;
  EXPECT_THROW(autotune::hierarchical_tune(factory, seed, dev_, params_),
               PlanError);
}

// ---- the whole pipeline ---------------------------------------------------

/// examples/diffuse.dsl tuned through ArtemisContext with its journal in
/// memory: the durable plan bytes, the schedule (the plan record holds
/// kernel 0's config only, and diffuse schedules two kernels) and the
/// journal the tune left.
struct PipelineRun {
  std::string plan_bytes;
  std::vector<std::string> kernels;  ///< name, invocations and config
  std::vector<int> fusion_schedule;
  std::string journal;
};

PipelineRun tune_diffuse(int jobs) {
  std::ifstream in(ARTEMIS_EXAMPLES_DIR "/diffuse.dsl");
  std::ostringstream source;
  source << in.rdbuf();
  storage::MemVfs vfs;
  driver::ContextOptions opts;
  opts.jobs = jobs;
  opts.vfs = &vfs;
  driver::ArtemisContext ctx(opts);
  driver::TuneRequest req;
  req.journal_path = "diffuse.wal";
  const driver::TuneOutcome out = ctx.tune(source.str(), req);
  PipelineRun run{out.plan_bytes, {}, out.result.fusion_schedule,
                  vfs.read(req.journal_path).value_or("")};
  for (const auto& k : out.result.kernels) {
    run.kernels.push_back(str_cat(k.name, " x", k.invocations, " ",
                                  autotune::serialize_config(k.config)));
  }
  return run;
}

/// Journal records whose status column is `status`.
int journal_count(const std::string& journal, const std::string& status) {
  std::istringstream lines(journal);
  int n = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(status + "\t", 0) == 0) ++n;
  }
  return n;
}

TEST_F(RobustTest, FaultInjectedPipelineKeepsTheCleanPlanAtAnyJobs) {
  // Retries and quarantine absorb 20% injected crashes and 5% injected
  // timeouts: the published plan and the whole schedule are identical to
  // a clean tune's, at jobs 1 and 4.
  const PipelineRun clean = tune_diffuse(1);
  ASSERT_FALSE(clean.plan_bytes.empty());
  ASSERT_EQ(clean.kernels.size(), 2u);
  EXPECT_EQ(journal_count(clean.journal, "crash"), 0);
  const auto expect_clean_schedule = [&clean](const PipelineRun& run,
                                              const std::string& label) {
    EXPECT_EQ(run.plan_bytes, clean.plan_bytes) << label;
    EXPECT_EQ(run.kernels, clean.kernels) << label;
    EXPECT_EQ(run.fusion_schedule, clean.fusion_schedule) << label;
  };
  expect_clean_schedule(tune_diffuse(4), "clean, jobs=4");

  install_fault_plan(
      parse_fault_spec("crash=0.2,timeout=0.05,seed=42,site=tuner.eval"));
  for (const int jobs : {1, 4}) {
    const PipelineRun faulty = tune_diffuse(jobs);
    expect_clean_schedule(faulty, str_cat("faulty, jobs=", jobs));
    EXPECT_GE(journal_count(faulty.journal, "crash"), 1) << "jobs=" << jobs;
    EXPECT_GE(journal_count(faulty.journal, "timeout"), 1) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace artemis::robust
