// Concurrency stress layer: the work-stealing TaskPool itself, and the
// tuner's shared state under concurrent use — write-ahead journal,
// candidate runner, telemetry counters — plus the tuner's invariants at
// jobs > 1 (the tuner runs its sweeps serially at any jobs value). Run
// under ThreadSanitizer in CI; the assertions here pin the *semantic*
// invariants (nothing lost, nothing double counted, order-independent
// quarantine, crash-resume with jobs > 1) while TSAN pins the memory
// model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/robust/candidate_runner.hpp"
#include "artemis/robust/errors.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis {
namespace {

// ---- TaskPool ------------------------------------------------------------

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  TaskPool pool(8);
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::int64_t> sum{0};
  pool.for_each(kN, [&](std::int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, PoolIsReusableAcrossManyForEachCalls) {
  // One pool spans many for_each calls; workers park between jobs rather
  // than re-spawning. Hammer that transition.
  TaskPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.for_each(round, [&](std::int64_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  std::int64_t want = 0;
  for (int round = 0; round < 50; ++round) {
    want += static_cast<std::int64_t>(round) * (round + 1) / 2;
  }
  EXPECT_EQ(sum.load(), want);
}

TEST(TaskPoolTest, NestedForEachRunsInlineWithoutDeadlock) {
  TaskPool outer(4);
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> saw_inside{0};
  outer.for_each(8, [&](std::int64_t) {
    if (TaskPool::inside_worker()) saw_inside.fetch_add(1);
    // A nested pool must degrade to inline-serial execution: one level
    // of parallelism wins, and the inner loop may not block on `outer`.
    TaskPool inner(4);
    inner.for_each(100, [&](std::int64_t i) {
      EXPECT_TRUE(TaskPool::inside_worker());
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 8 * (100 * 99 / 2));
  EXPECT_EQ(saw_inside.load(), 8);
  EXPECT_FALSE(TaskPool::inside_worker());
}

TEST(TaskPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.for_each(1000,
                    [&](std::int64_t i) {
                      if (i == 437) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
  // The pool must still be fully usable after a failed job.
  std::atomic<std::int64_t> sum{0};
  pool.for_each(100, [&](std::int64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(TaskPoolTest, ParallelForCoversRange) {
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::int64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---- shared tuning state under concurrent shards -------------------------

TEST(ParallelStressTest, JournalRunnerSurviveConcurrentHammer) {
  const std::string path = "/tmp/artemis_parallel_stress_hammer.wal";
  std::remove(path.c_str());

  robust::FaultSpec spec;
  spec.crash_p = 0.3;
  spec.timeout_p = 0.0;
  spec.seed = 17;
  robust::install_fault_plan(spec);

  robust::TuningJournal journal;
  ASSERT_EQ(journal.open(path, "hammer", /*resume=*/false).status,
            robust::JournalLoadResult::Status::Fresh);
  robust::CandidateRunner runner;

  constexpr int kTasks = 512;
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::atomic<bool> over_budget{false};
  TaskPool pool(8);
  pool.for_each(kTasks, [&](std::int64_t i) {
    // 64 distinct keys, each hit by ~8 tasks concurrently: maximum
    // contention on the per-key failure ledger and the journal.
    const std::string key = str_cat("cand-", i % 64);
    const robust::RunOutcome out =
        runner.run("stress.eval", key, [&]() {
          gpumodel::KernelEval eval;
          eval.time_s = 1e-3 + static_cast<double>(i % 64) * 1e-6;
          return eval;
        });
    if (out.attempts > robust::kMaxAttempts) over_budget.store(true);
    if (out.ok()) {
      ok.fetch_add(1, std::memory_order_relaxed);
      journal.record(key, "ok", out.eval.time_s, 0.0);
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
      journal.record(key, robust::run_status_name(out.status), 0, 0);
    }
  });
  robust::clear_fault_plan();

  // Nothing lost: every task recorded exactly one journal line and was
  // counted exactly once.
  EXPECT_EQ(ok.load() + failed.load(), kTasks);
  EXPECT_EQ(journal.recorded(), static_cast<std::size_t>(kTasks));
  EXPECT_GT(ok.load(), 0);
  EXPECT_FALSE(over_budget.load()) << "a run exceeded kMaxAttempts";
  // The journal file itself must hold header + kTasks intact lines.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, kTasks + 1);
  std::remove(path.c_str());
}

TEST(ParallelStressTest, QuarantineMembershipIsOrderIndependent) {
  // Feed the same failing keys to two runners in opposite orders; the
  // quarantine sets must agree, because membership only depends on the
  // per-key failure count, never on global evaluation order.
  // A plan whose site matches nothing arms the resilient path (without a
  // plan run() takes the fast path, which neither retries nor
  // quarantines) and leaves every outcome to the evaluation itself.
  robust::FaultSpec spec;
  spec.crash_p = 1.0;
  spec.site = "no-such-site";
  robust::install_fault_plan(spec);
  // Two rounds of up to kMaxAttempts failures each reach the threshold.
  static_assert(robust::kQuarantineThreshold <= 2 * robust::kMaxAttempts);
  const auto run_keys = [](const std::vector<std::string>& keys) {
    robust::CandidateRunner runner;
    for (int round = 0; round < 2; ++round) {
      for (const std::string& key : keys) {
        (void)runner.run("order.eval", key, [&]() -> gpumodel::KernelEval {
          if (key.find("bad") != std::string::npos) {
            throw robust::EvalCrash("injected");
          }
          return {};
        });
      }
    }
    std::set<std::string> quarantined;
    for (const std::string& key : keys) {
      if (runner.is_quarantined(key)) quarantined.insert(key);
    }
    return quarantined;
  };

  std::vector<std::string> forward = {"bad-a", "good-b", "bad-c",
                                      "good-d", "bad-e"};
  std::vector<std::string> reversed(forward.rbegin(), forward.rend());
  const auto a = run_keys(forward);
  const auto b = run_keys(reversed);
  robust::clear_fault_plan();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::set<std::string>{"bad-a", "bad-c", "bad-e"}));
}

// ---- crash-resume with parallel jobs -------------------------------------

class ParallelResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    robust::clear_fault_plan();
    std::remove(path_.c_str());
  }
  void TearDown() override {
    robust::clear_fault_plan();
    std::remove(path_.c_str());
  }

  std::string path_ = "/tmp/artemis_parallel_stress_resume.wal";
};

TEST_F(ParallelResumeTest, TornTailJournalResumesUnderParallelTuning) {
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;
  Rng rng(0x51);
  stencils::RandomStencilOptions sopts;
  sopts.dims = 3;
  const ir::Program prog = stencils::random_program(rng, sopts);
  const auto factory = [&](const codegen::KernelConfig& cfg) {
    return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  };

  autotune::TuneOptions topts;
  topts.max_block = 16;
  topts.max_unroll_bandwidth = 2;
  topts.register_budgets = {64};

  // First run: journaled, at jobs 4.
  autotune::TuneResult first;
  {
    robust::TuningJournal journal;
    journal.open(path_, "resume-stress", /*resume=*/false);
    topts.journal = &journal;
    topts.jobs = 4;
    first = autotune::hierarchical_tune(factory, {}, dev, params, topts);
    EXPECT_GT(journal.recorded(), 0u);
  }

  // Simulate a crash mid-append: a torn final line with no newline.
  {
    std::ofstream out(path_, std::ios::app);
    out << "ok\t0.0012";  // no trailing fields, no newline
  }

  // Resume with jobs > 1: the torn tail is healed, intact records are
  // replayed, and the plan matches the original run exactly.
  {
    robust::TuningJournal journal;
    const auto load = journal.open(path_, "resume-stress", /*resume=*/true);
    ASSERT_EQ(load.status, robust::JournalLoadResult::Status::Replayed);
    EXPECT_TRUE(load.torn_tail);
    EXPECT_GT(load.replayed, 0u);
    topts.journal = &journal;
    topts.jobs = 4;
    const autotune::TuneResult again =
        autotune::hierarchical_tune(factory, {}, dev, params, topts);
    EXPECT_GT(again.journal_hits, 0);
    EXPECT_EQ(autotune::serialize_config(again.best.config),
              autotune::serialize_config(first.best.config));
    EXPECT_EQ(again.best.time_s, first.best.time_s);
  }
}

// ---- telemetry counter identities under parallel tuning ------------------

TEST(ParallelStressTest, EnumeratedEqualsEvaluatedPlusInfeasible) {
  // The run-report invariant (telemetry/report.cpp): every enumerated
  // candidate is either evaluated or rejected as infeasible, exactly
  // once, at any jobs value.
  const auto dev = gpumodel::p100();
  const gpumodel::ModelParams params;
  Rng rng(0x77);
  stencils::RandomStencilOptions sopts;
  sopts.dims = 3;
  const ir::Program prog = stencils::random_program(rng, sopts);
  const auto factory = [&](const codegen::KernelConfig& cfg) {
    return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  };

  auto& collector = telemetry::Collector::global();
  collector.enable();
  collector.clear();

  autotune::TuneOptions topts;
  topts.max_block = 16;
  topts.max_unroll_bandwidth = 2;
  topts.register_budgets = {64, 128};
  topts.jobs = 8;
  const autotune::TuneResult r =
      autotune::hierarchical_tune(factory, {}, dev, params, topts);

  const auto counters = collector.counters();
  collector.disable();
  const auto counter = [&](const char* name) -> std::int64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("tuner.enumerated"), 0);
  EXPECT_EQ(counter("tuner.enumerated"),
            counter("tuner.evaluated") + counter("tuner.infeasible"));
  EXPECT_EQ(counter("tuner.evaluated"),
            static_cast<std::int64_t>(r.total_evaluated()));
}

}  // namespace
}  // namespace artemis
