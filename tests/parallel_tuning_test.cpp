// Serial/parallel equivalence of the autotuner (the contract behind
// `artemisc --jobs N`): for any seed and any jobs value the tuner must
// return byte-identical results to the serial path — same best config,
// same reported cost, same leaderboard, same resilience accounting, and
// (when journaling) the same journal bytes. The tests sweep seeded
// random stencils through jobs in {1, 2, 4, 8}, with and without
// injected crash/timeout loads.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "artemis/autotune/deep_tuning.hpp"
#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::autotune {
namespace {

using codegen::KernelConfig;

/// Everything a tuning run decided, flattened to printable text so a
/// mismatch between jobs values shows the exact divergence. Times are
/// printed with max precision: "identical" means bit-identical.
std::string snapshot(const TuneResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "best=" << serialize_config(r.best.config) << " time=" << r.best.time_s
     << "\n";
  for (const auto& c : r.leaderboard) {
    os << "  board " << serialize_config(c.config) << " time=" << c.time_s
       << "\n";
  }
  os << "evaluated_stage1=" << r.evaluated_stage1
     << " evaluated_stage2=" << r.evaluated_stage2
     << " infeasible=" << r.infeasible
     << " skipped_spilling=" << r.skipped_spilling
     << " crashed=" << r.crashed << " timed_out=" << r.timed_out
     << " quarantined=" << r.quarantined
     << " journal_hits=" << r.journal_hits << " degraded=" << r.degraded
     << "\n";
  return os.str();
}

/// Small-but-real search space so 20 stencils x 4 jobs settings stay
/// fast; every path of the tuner (escalation, both stages, streaming)
/// is still exercised.
TuneOptions small_space(int jobs) {
  TuneOptions o;
  o.max_block = 16;
  o.max_unroll_bandwidth = 2;
  o.register_budgets = {64, 128};
  o.jobs = jobs;
  return o;
}

class ParallelTuningTest : public ::testing::Test {
 protected:
  void SetUp() override { robust::clear_fault_plan(); }
  void TearDown() override { robust::clear_fault_plan(); }

  PlanFactory factory_for(const ir::Program& prog) {
    return [&prog, this](const KernelConfig& cfg) {
      return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg,
                                          dev_);
    };
  }

  ir::Program random_stencil(std::uint64_t seed) {
    Rng rng(seed);
    stencils::RandomStencilOptions opts;
    opts.dims = 2 + static_cast<int>(seed % 2);
    opts.max_order = 2;
    return stencils::random_program(rng, opts);
  }

  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;
};

// ---- the core equivalence sweep: 20 seeded random stencils ---------------

TEST_F(ParallelTuningTest, PlanIdenticalAcrossJobsForTwentyRandomStencils) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ir::Program prog = random_stencil(seed);
    const auto factory = factory_for(prog);
    const KernelConfig seed_cfg;

    const TuneResult serial =
        hierarchical_tune(factory, seed_cfg, dev_, params_, small_space(1));
    const std::string want = snapshot(serial);
    ASSERT_TRUE(serial.best.eval.valid) << "stencil seed " << seed;

    for (const int jobs : {2, 4, 8}) {
      const TuneResult parallel = hierarchical_tune(
          factory, seed_cfg, dev_, params_, small_space(jobs));
      EXPECT_EQ(snapshot(parallel), want)
          << "stencil seed " << seed << ", jobs=" << jobs;
    }
  }
}

// ---- equivalence under injected crash/timeout load -----------------------

TEST_F(ParallelTuningTest, FaultInjectedPlansAreJobsInvariant) {
  // Crashes and timeouts hit the same candidates on every thread (fault
  // decisions are a pure hash of the key), and quarantine membership is
  // order-independent; the whole result — including the crash/timeout/
  // quarantine accounting — must not depend on jobs.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    robust::FaultSpec spec;
    spec.crash_p = 0.3;
    spec.timeout_p = 0.05;
    spec.seed = 1000 + seed;
    spec.site = "tuner.eval";
    robust::install_fault_plan(spec);

    const ir::Program prog = random_stencil(seed);
    const auto factory = factory_for(prog);
    const KernelConfig seed_cfg;

    const TuneResult serial =
        hierarchical_tune(factory, seed_cfg, dev_, params_, small_space(1));
    const std::string want = snapshot(serial);

    for (const int jobs : {4, 8}) {
      const TuneResult parallel = hierarchical_tune(
          factory, seed_cfg, dev_, params_, small_space(jobs));
      EXPECT_EQ(snapshot(parallel), want)
          << "stencil seed " << seed << ", jobs=" << jobs;
      EXPECT_EQ(parallel.quarantined, serial.quarantined)
          << "quarantine must be order-independent";
    }
  }
}

// ---- equivalence with every model time deliberately tied -----------------

TEST_F(ParallelTuningTest, TiedModelTimesAreJobsInvariant) {
  // Regression for the leaderboard tie-break: a factory that ignores the
  // requested configuration and always builds the same plan makes every
  // candidate's modelled time identical, so the board order is decided
  // entirely by the canonical-serialization tie-break. Neither insertion
  // history nor jobs may leak into the result.
  const ir::Program prog = random_stencil(9);
  const KernelConfig fixed;
  const PlanFactory factory = [&prog, this, fixed](const KernelConfig&) {
    return codegen::build_plan_for_call(prog, prog.steps[0].call, fixed,
                                        dev_);
  };
  const KernelConfig seed_cfg;

  const TuneResult serial =
      hierarchical_tune(factory, seed_cfg, dev_, params_, small_space(1));
  ASSERT_TRUE(serial.best.eval.valid);
  ASSERT_GE(serial.leaderboard.size(), 2u);
  for (std::size_t i = 0; i + 1 < serial.leaderboard.size(); ++i) {
    const auto& a = serial.leaderboard[i];
    const auto& b = serial.leaderboard[i + 1];
    EXPECT_LE(a.time_s, b.time_s);
    if (a.time_s == b.time_s) {
      EXPECT_LT(serialize_config(a.config), serialize_config(b.config))
          << "ties must be ordered by the canonical key, slot " << i;
    }
  }

  const std::string want = snapshot(serial);
  for (const int jobs : {4, 8}) {
    const TuneResult parallel = hierarchical_tune(factory, seed_cfg, dev_,
                                                  params_, small_space(jobs));
    EXPECT_EQ(snapshot(parallel), want) << "jobs=" << jobs;
  }
}

// ---- journal byte-identity -----------------------------------------------

class ParallelJournalTest : public ParallelTuningTest {
 protected:
  void SetUp() override {
    ParallelTuningTest::SetUp();
    path_ = str_cat("/tmp/artemis_parallel_tuning_",
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name(),
                    ".wal");
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    ParallelTuningTest::TearDown();
  }

  std::string read_file() const {
    std::ifstream in(path_);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string path_;
};

TEST_F(ParallelJournalTest, JournalBytesIdenticalAcrossJobs) {
  // The journal is committed by the ordered reduction only, so even its
  // byte layout must not depend on jobs — with faults armed, too.
  robust::FaultSpec spec;
  spec.crash_p = 0.25;
  spec.seed = 7;
  spec.site = "tuner.eval";

  const ir::Program prog = random_stencil(3);
  const auto factory = factory_for(prog);
  const KernelConfig seed_cfg;

  std::string serial_bytes;
  for (const int jobs : {1, 8}) {
    std::remove(path_.c_str());
    robust::install_fault_plan(spec);
    robust::TuningJournal journal;
    ASSERT_EQ(journal.open(path_, "jobs-eq", /*resume=*/false).status,
              robust::JournalLoadResult::Status::Fresh);
    TuneOptions opts = small_space(jobs);
    opts.journal = &journal;
    const TuneResult r =
        hierarchical_tune(factory, seed_cfg, dev_, params_, opts);
    EXPECT_GT(journal.recorded(), 0u);
    (void)r;
    if (jobs == 1) {
      serial_bytes = read_file();
    } else {
      EXPECT_EQ(read_file(), serial_bytes) << "jobs=" << jobs;
    }
  }
}

TEST_F(ParallelJournalTest, ParallelRunResumesFromJournal) {
  const ir::Program prog = random_stencil(4);
  const auto factory = factory_for(prog);
  const KernelConfig seed_cfg;

  TuneResult first;
  {
    robust::TuningJournal journal;
    journal.open(path_, "resume-par", /*resume=*/false);
    TuneOptions opts = small_space(4);
    opts.journal = &journal;
    first = hierarchical_tune(factory, seed_cfg, dev_, params_, opts);
    EXPECT_GT(journal.recorded(), 0u);
    EXPECT_EQ(first.journal_hits, 0);
  }
  {
    robust::TuningJournal journal;
    const auto load = journal.open(path_, "resume-par", /*resume=*/true);
    ASSERT_EQ(load.status, robust::JournalLoadResult::Status::Replayed);
    EXPECT_GT(load.replayed, 0u);
    TuneOptions opts = small_space(4);
    opts.journal = &journal;
    auto& collector = telemetry::Collector::global();
    collector.clear();
    collector.enable();
    const TuneResult again =
        hierarchical_tune(factory, seed_cfg, dev_, params_, opts);
    const auto counters = collector.counters();
    collector.disable();
    EXPECT_GT(again.journal_hits, 0);
    EXPECT_EQ(serialize_config(again.best.config),
              serialize_config(first.best.config));
    EXPECT_EQ(again.best.time_s, first.best.time_s);

    // Replay accounting: journal hits are counted in their own
    // `tuner.space_replayed` counter, never folded into the sweep's
    // enumeration, so a resumed run's space-coverage fraction stays <= 1
    // instead of double-counting every replayed candidate.
    const auto counter = [&](const char* name) -> std::int64_t {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(counter("tuner.space_replayed"), again.journal_hits);
    EXPECT_GT(counter("tuner.space_unpruned"), 0);
    EXPECT_LE(counter("tuner.space_enumerated"),
              counter("tuner.space_unpruned"));
    // The enumerated partition holds on the replay path, too, and every
    // configuration a sweep enumerates is committed exactly once.
    EXPECT_EQ(counter("tuner.enumerated"),
              counter("tuner.evaluated") + counter("tuner.infeasible"));
    EXPECT_EQ(counter("tuner.space_enumerated"), counter("tuner.enumerated"));
  }
}

// ---- the other searches --------------------------------------------------

TEST_F(ParallelTuningTest, RandomTuneIsJobsInvariant) {
  // The random sweep draws its whole sample serially first (one RNG
  // stream) and may contain duplicate configurations — the duplicate-key
  // deferral path — so it is tuned with a journal to force keys alive.
  const ir::Program prog = random_stencil(6);
  const auto factory = factory_for(prog);
  const KernelConfig seed_cfg;

  robust::TuningJournal unused;  // inactive: keys exist, no file I/O
  TuneOptions serial_opts = small_space(1);
  serial_opts.journal = &unused;
  const TuneResult serial = random_tune(factory, seed_cfg, dev_, params_,
                                        serial_opts, /*budget=*/80, 99);
  for (const int jobs : {2, 8}) {
    TuneOptions opts = small_space(jobs);
    opts.journal = &unused;
    const TuneResult parallel =
        random_tune(factory, seed_cfg, dev_, params_, opts, /*budget=*/80,
                    99);
    EXPECT_EQ(snapshot(parallel), snapshot(serial)) << "jobs=" << jobs;
  }
}

TEST_F(ParallelTuningTest, ExhaustiveTuneIsJobsInvariant) {
  const ir::Program prog = random_stencil(7);
  const auto factory = factory_for(prog);
  const KernelConfig seed_cfg;

  TuneOptions serial_opts = small_space(1);
  serial_opts.register_budgets = {64};
  const TuneResult serial =
      exhaustive_tune(factory, seed_cfg, dev_, params_, serial_opts);
  TuneOptions par_opts = small_space(8);
  par_opts.register_budgets = {64};
  const TuneResult parallel =
      exhaustive_tune(factory, seed_cfg, dev_, params_, par_opts);
  EXPECT_EQ(snapshot(parallel), snapshot(serial));
}

TEST_F(ParallelTuningTest, DeepTuneIsJobsInvariant) {
  // Parallel deep tuning shards the per-x loop; the reduction replays
  // the serial stopping rule, so entries, cusp handling and the tipping
  // point must match exactly.
  const auto prog = stencils::benchmark_program("7pt-smoother", 128);

  DeepTuneOptions serial_opts;
  serial_opts.max_time_tile = 4;
  serial_opts.tune = small_space(1);
  const DeepTuneResult serial =
      deep_tune(prog, prog.steps[0], dev_, params_, serial_opts);

  DeepTuneOptions par_opts = serial_opts;
  par_opts.tune = small_space(4);
  const DeepTuneResult parallel =
      deep_tune(prog, prog.steps[0], dev_, params_, par_opts);

  EXPECT_EQ(parallel.tipping_point, serial.tipping_point);
  ASSERT_EQ(parallel.entries.size(), serial.entries.size());
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    EXPECT_EQ(parallel.entries[i].time_tile, serial.entries[i].time_tile);
    EXPECT_EQ(parallel.entries[i].time_s, serial.entries[i].time_s);
    EXPECT_EQ(serialize_config(parallel.entries[i].tuned.best.config),
              serialize_config(serial.entries[i].tuned.best.config));
  }
}

// ---- jobs resolution policy ----------------------------------------------

TEST_F(ParallelTuningTest, ResolveJobsPolicy) {
  TuneOptions o;
  o.jobs = 1;
  EXPECT_EQ(resolve_tune_jobs(o), 1);
  o.jobs = 5;
  EXPECT_EQ(resolve_tune_jobs(o), 5);
  o.jobs = -3;
  EXPECT_EQ(resolve_tune_jobs(o), 1);
  o.jobs = 0;
  set_default_jobs(6);
  EXPECT_EQ(resolve_tune_jobs(o), 6);
  set_default_jobs(0);
  EXPECT_GE(resolve_tune_jobs(o), 1);  // hardware concurrency

  // Inside a pool worker every nested search drops to serial.
  TaskPool pool(2);
  int inner = -1;
  pool.for_each(2, [&](std::int64_t i) {
    if (i == 0) {
      TuneOptions nested;
      nested.jobs = 8;
      inner = resolve_tune_jobs(nested);
    }
  });
  EXPECT_EQ(inner, 1);
}

}  // namespace
}  // namespace artemis::autotune
