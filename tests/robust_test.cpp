#include <gtest/gtest.h>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/robust/candidate_runner.hpp"
#include "artemis/robust/errors.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/stencils/benchmarks.hpp"

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
  const FaultSpec s = parse_fault_spec(
      "crash=0.25, timeout=0.1, perturb=0.5, jitter=0.4, stall_ms=8, "
      "seed=7, site=tuner");
  EXPECT_DOUBLE_EQ(s.crash_p, 0.25);
  EXPECT_DOUBLE_EQ(s.timeout_p, 0.1);
  EXPECT_DOUBLE_EQ(s.perturb_p, 0.5);
  EXPECT_DOUBLE_EQ(s.jitter, 0.4);
  EXPECT_DOUBLE_EQ(s.stall_ms, 8);
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

TEST_F(RobustTest, PerturbedTimeStaysWithinJitterBand) {
  FaultSpec spec;
  spec.perturb_p = 1.0;
  spec.jitter = 0.3;
  install_fault_plan(spec);
  bool moved = false;
  for (int trial = 0; trial < 16; ++trial) {
    const double t = perturbed_time("tuner.eval", "k", 0, trial, 1.0);
    EXPECT_GE(t, 0.7);
    EXPECT_LE(t, 1.3);
    if (t != 1.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

// ---- error taxonomy ---------------------------------------------------------

TEST_F(RobustTest, ErrorClassDiscriminatesTheTaxonomy) {
  EXPECT_STREQ(error_class(EvalTimeout("t")), "eval_timeout");
  EXPECT_STREQ(error_class(EvalCrash("c")), "eval_crash");
  EXPECT_STREQ(error_class(MeasurementUnstable("m")), "measurement_unstable");
  EXPECT_STREQ(error_class(PlanError("p")), "plan_error");
  EXPECT_STREQ(error_class(Error("e")), "error");
  EXPECT_STREQ(error_class(std::runtime_error("r")), "exception");
}

// ---- candidate runner -------------------------------------------------------

TEST_F(RobustTest, RunnerFastPathEvaluatesOnce) {
  CandidateRunner runner;  // zero-cost defaults, no faults installed
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k", [&] {
    ++calls;
    return fake_eval(2e-3);
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.status, RunStatus::Ok);
  EXPECT_DOUBLE_EQ(out.time_s, 2e-3);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.retries, 0);
  EXPECT_EQ(calls, 1);
}

TEST_F(RobustTest, RunnerFastPathMapsPlanErrorToInfeasible) {
  CandidateRunner runner;
  const auto out = runner.run(
      "tuner.eval", "k",
      []() -> gpumodel::KernelEval { throw PlanError("no such mapping"); });
  EXPECT_EQ(out.status, RunStatus::Infeasible);
  EXPECT_EQ(out.reason, "no such mapping");
}

TEST_F(RobustTest, RunnerRetriesTransientCrashes) {
  RunnerOptions opts;
  opts.deadline_ms = 1e9;  // arm the resilient path, deadline never trips
  opts.max_attempts = 3;
  CandidateRunner runner(opts);
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k", [&] {
    if (++calls < 3) throw EvalCrash("transient");
    return fake_eval(1e-3);
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.retries, 2);
  EXPECT_EQ(calls, 3);
  // Success cleared the failure streak: nothing is quarantined.
  EXPECT_EQ(runner.quarantined_count(), 0);
}

TEST_F(RobustTest, RunnerDoesNotRetryDeterministicInfeasibility) {
  RunnerOptions opts;
  opts.deadline_ms = 1e9;
  CandidateRunner runner(opts);
  int calls = 0;
  const auto out = runner.run("tuner.eval", "k",
                              [&]() -> gpumodel::KernelEval {
                                ++calls;
                                throw PlanError("deterministic");
                              });
  EXPECT_EQ(out.status, RunStatus::Infeasible);
  EXPECT_EQ(calls, 1) << "PlanError must not burn retry attempts";
  EXPECT_EQ(runner.quarantined_count(), 0)
      << "infeasibility is not a quarantine debit";
}

TEST_F(RobustTest, RunnerQuarantinesAfterConsecutiveFailures) {
  RunnerOptions opts;
  opts.deadline_ms = 1e9;
  opts.max_attempts = 3;
  opts.quarantine_threshold = 3;
  CandidateRunner runner(opts);
  int calls = 0;
  const auto fail = [&]() -> gpumodel::KernelEval {
    ++calls;
    throw EvalCrash("always");
  };
  const auto first = runner.run("tuner.eval", "k", fail);
  EXPECT_EQ(first.status, RunStatus::Crash);
  EXPECT_TRUE(first.quarantined_now);
  EXPECT_TRUE(runner.is_quarantined("k"));
  EXPECT_EQ(calls, 3);

  const auto second = runner.run("tuner.eval", "k", fail);
  EXPECT_EQ(second.status, RunStatus::Quarantined);
  EXPECT_EQ(calls, 3) << "quarantined keys are never re-evaluated";
  EXPECT_EQ(runner.quarantined_count(), 1);
  // Other keys are unaffected.
  EXPECT_FALSE(runner.is_quarantined("other"));
}

TEST_F(RobustTest, RunnerRejectsUnstableTrials) {
  RunnerOptions opts;
  opts.trials = 3;  // arms the runner
  opts.mad_tolerance = 0.05;
  opts.max_attempts = 2;
  opts.quarantine_threshold = 100;  // keep quarantine out of this test
  CandidateRunner runner(opts);
  int calls = 0;
  const double times[] = {1e-3, 2e-3, 4e-3};
  const auto out = runner.run("tuner.eval", "k", [&] {
    return fake_eval(times[calls++ % 3]);
  });
  EXPECT_EQ(out.status, RunStatus::Unstable);
  EXPECT_EQ(out.attempts, 2);
}

TEST_F(RobustTest, RunnerMedianIsRobustToOneSlowTrial) {
  RunnerOptions opts;
  opts.trials = 3;
  opts.mad_tolerance = 10.0;  // accept the dispersion; test the median
  CandidateRunner runner(opts);
  int calls = 0;
  const double times[] = {1e-3, 50e-3, 1.2e-3};  // one wild outlier
  const auto out = runner.run("tuner.eval", "k", [&] {
    return fake_eval(times[calls++ % 3]);
  });
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.time_s, 1.2e-3) << "median, not mean or max";
}

TEST_F(RobustTest, InjectedStallsAreClassifiedAsTimeouts) {
  FaultSpec spec;
  spec.timeout_p = 1.0;  // every attempt stalls
  spec.stall_ms = 8;     // implied deadline: 4 ms
  install_fault_plan(spec);
  RunnerOptions opts;
  opts.max_attempts = 2;
  opts.quarantine_threshold = 100;
  CandidateRunner runner(opts);
  const auto out =
      runner.run("tuner.eval", "k", [&] { return fake_eval(1e-3); });
  EXPECT_EQ(out.status, RunStatus::Timeout);
  EXPECT_EQ(out.attempts, 2);
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

  install_fault_plan(parse_fault_spec(
      "crash=0.2,timeout=0.05,stall_ms=4,seed=42,site=tuner.eval"));
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

}  // namespace
}  // namespace artemis::robust
