// The execution observatory: counting-mode measurement, the cache-replay
// mappings, the model-vs-measured comparator, Spearman rank correlation,
// and the deterministic-observability contract (measurement and the
// search-event stream must not perturb results or journals at any jobs
// value).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/metrics/compare.hpp"
#include "artemis/metrics/metrics.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "test_programs.hpp"

namespace artemis::metrics {
namespace {

using codegen::KernelConfig;

// ---- spearman -------------------------------------------------------------

TEST(Spearman, PerfectAgreement) {
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
}

TEST(Spearman, PerfectReversal) {
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
}

TEST(Spearman, MonotoneTransformInvariant) {
  // Rank correlation sees only the ordering, not the scale.
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0);
}

TEST(Spearman, TiesGetAverageRanks) {
  // {1, 2, 2, 3} vs {1, 2, 2, 3}: ties on both sides, same placement.
  EXPECT_DOUBLE_EQ(spearman({1, 2, 2, 3}, {1, 2, 2, 3}), 1.0);
  // A tie against distinct values: correlation drops below 1 but stays
  // positive for an otherwise-agreeing order.
  const double r = spearman({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(r, 0.8);
  EXPECT_LT(r, 1.0);
}

TEST(Spearman, PermutationInvariant) {
  // rho is a function of the *pairing*, not the presentation order:
  // applying the same permutation to both vectors must not change it.
  Rng rng(0x5EA3);
  std::vector<double> xs(16), ys(16);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(rng.uniform_int(0, 9));  // ties included
    ys[i] = static_cast<double>(rng.uniform_int(0, 99));
  }
  const double base = spearman(xs, ys);
  std::vector<std::size_t> perm(xs.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (int trial = 0; trial < 8; ++trial) {
    // Fisher-Yates with the deterministic rng.
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i],
                perm[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    std::vector<double> px(xs.size()), py(ys.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      px[i] = xs[perm[i]];
      py[i] = ys[perm[i]];
    }
    EXPECT_NEAR(spearman(px, py), base, 1e-12);
  }
}

TEST(Spearman, NegationFlipsSign) {
  // Negating one side reverses every pairwise order, so rho changes sign
  // exactly; negating both sides restores it.
  Rng rng(0xF11B);
  std::vector<double> xs(12), ys(12);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(rng.uniform_int(0, 1000));
    ys[i] = static_cast<double>(rng.uniform_int(0, 1000));
  }
  const double base = spearman(xs, ys);
  std::vector<double> neg_y(ys);
  for (auto& v : neg_y) v = -v;
  EXPECT_NEAR(spearman(xs, neg_y), -base, 1e-12);
  std::vector<double> neg_x(xs);
  for (auto& v : neg_x) v = -v;
  EXPECT_NEAR(spearman(neg_x, neg_y), base, 1e-12);
}

TEST(Spearman, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(spearman({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(spearman({1}, {2}), 1.0);
  EXPECT_DOUBLE_EQ(spearman({1, 1, 1}, {1, 1, 1}), 1.0);  // both constant
  EXPECT_DOUBLE_EQ(spearman({1, 1, 1}, {1, 2, 3}), 0.0);  // one constant
}

// ---- delta ----------------------------------------------------------------

TEST(Delta, RelErrorConvention) {
  EXPECT_DOUBLE_EQ((Delta{0, 0}.rel_error()), 0.0);
  // Model under-predicts: positive error, bounded by 1.
  EXPECT_DOUBLE_EQ((Delta{50, 100}.rel_error()), 0.5);
  // Model over-predicts: negative.
  EXPECT_DOUBLE_EQ((Delta{100, 50}.rel_error()), -0.5);
  // Predicted 0, measured nonzero: full-scale error, not a division blowup.
  EXPECT_DOUBLE_EQ((Delta{0, 7}.rel_error()), 1.0);
}

TEST(MeasuredRoofline, PicksTheBindingResource) {
  gpumodel::DeviceSpec dev = gpumodel::p100();
  PlanMetrics m;
  m.totals.dram_read_bytes = static_cast<std::int64_t>(dev.dram_bytes_per_s);
  m.totals.flops = 1;  // negligible compute
  // One second of DRAM traffic: the roofline must report ~1s.
  EXPECT_NEAR(measured_roofline_s(m, dev), 1.0, 1e-9);
  m.totals.flops = static_cast<std::int64_t>(dev.peak_dp_flops * 4);
  EXPECT_NEAR(measured_roofline_s(m, dev), 4.0, 1e-9);
}

// ---- measure_plan ---------------------------------------------------------

TEST(MeasurePlan, JacobiStageAccounting) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 4, 2};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);

  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  const PlanMetrics m = measure_plan(plan, gs, dev);

  ASSERT_EQ(m.stages.size(), 1u);
  const StageMetrics& s = m.stages[0];
  EXPECT_EQ(s.name, plan.stages[0].name);
  // 16^3 order-1: 14^3 interior applications, the shell guard-skipped.
  EXPECT_EQ(s.computed_points(), 14 * 14 * 14);
  EXPECT_EQ(s.skipped_points, 16 * 16 * 16 - 14 * 14 * 14);
  // 9 arithmetic nodes + the c = b*h2inv prelude per point.
  EXPECT_GT(s.flops, 0);
  EXPECT_EQ(s.flops % s.computed_points(), 0);  // flops_per_point x points

  // Line-level invariants of the replay.
  EXPECT_EQ(s.tex_bytes, s.read_line_requests * m.line_bytes);
  EXPECT_EQ(s.dram_write_bytes, s.unique_write_lines * m.line_bytes);
  EXPECT_EQ(s.working_set_bytes, s.unique_lines * m.line_bytes);
  EXPECT_LE(s.dram_read_bytes, s.tex_bytes);
  EXPECT_GE(s.redundant_load_fraction, 0.0);
  EXPECT_LT(s.redundant_load_fraction, 1.0);
  EXPECT_GE(s.l2_hit_rate, 0.0);
  EXPECT_LE(s.l2_hit_rate, 1.0);

  // The working set cannot exceed the two arrays' line-rounded footprint.
  const std::int64_t array_bytes = 2 * 16 * 16 * 16 * 8;
  EXPECT_GT(s.working_set_bytes, 0);
  EXPECT_LE(s.working_set_bytes, array_bytes + 2 * m.line_bytes);

  // Per-array attribution: every request lands on a named array, and the
  // write traffic goes to the output only.
  ASSERT_EQ(m.arrays.size(), 2u);
  std::int64_t reads = 0, writes = 0;
  for (const auto& a : m.arrays) {
    reads += a.read_line_requests;
    writes += a.write_line_requests;
    if (a.write_line_requests > 0) {
      EXPECT_EQ(a.name, "out");
    }
  }
  EXPECT_EQ(reads, m.totals.read_line_requests);
  EXPECT_EQ(writes, m.totals.write_line_requests);

  // OI is FLOPs over DRAM traffic by definition.
  EXPECT_DOUBLE_EQ(
      s.oi_dram(),
      static_cast<double>(s.flops) / static_cast<double>(s.dram_bytes()));
}

/// Flatten the interesting fields so jobs-invariance failures print the
/// exact divergence.
std::string metrics_snapshot(const PlanMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& s : m.stages) {
    os << s.name << " pts=" << s.computed_points() << " rim=" << s.rim_points
       << " flops=" << s.flops << " reads=" << s.read_line_requests
       << " writes=" << s.write_line_requests << " uniq=" << s.unique_lines
       << " tex=" << s.tex_bytes << " dramr=" << s.dram_read_bytes
       << " dramw=" << s.dram_write_bytes << " shm=" << s.shm_bytes
       << " l2=" << s.l2_hit_rate << " red=" << s.redundant_load_fraction
       << "\n";
  }
  os << "total uniq=" << m.totals.unique_lines
     << " dramr=" << m.totals.dram_read_bytes
     << " l2=" << m.totals.l2_hit_rate << "\n";
  for (const auto& a : m.arrays) {
    os << a.name << " ws=" << a.working_set_bytes
       << " r=" << a.read_line_requests << " w=" << a.write_line_requests
       << "\n";
  }
  return os.str();
}

TEST(MeasurePlan, MeasurementIsJobsInvariant) {
  const ir::Program prog = dsl::parse(artemis::testing::kDagDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 4, 2};
  std::vector<ir::BoundStencil> stages;
  int idx = 0;
  for (const auto& step : prog.steps) {
    stages.push_back(
        ir::bind_call(prog, step.call, str_cat("s", idx++, "_")));
  }
  const auto plan = codegen::build_plan(prog, stages, cfg, dev, {});

  std::string serial;
  for (const int jobs : {1, 4}) {
    sim::GridSet gs = sim::GridSet::from_program(prog, 9);
    sim::ExecOptions opts;
    opts.jobs = jobs;
    const PlanMetrics m = measure_plan(plan, gs, dev, opts);
    EXPECT_EQ(m.stages.size(), plan.stages.size());
    if (jobs == 1) {
      serial = metrics_snapshot(m);
    } else {
      EXPECT_EQ(metrics_snapshot(m), serial) << "jobs=" << jobs;
    }
  }
}

TEST(MeasurePlan, DegenerateAxes1D) {
  // Extent-1 y/z axes: the replay must still balance, with the working
  // set spanning only the 1D footprint.
  Rng rng(0x1DA7E);
  stencils::RandomStencilOptions ropts;
  ropts.dims = 1;
  ropts.max_order = 2;
  ropts.max_stages = 1;
  const ir::Program prog = stencils::random_program(rng, ropts);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 1, 1};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  sim::GridSet gs = sim::GridSet::from_program(prog, 2);
  const PlanMetrics m = measure_plan(plan, gs, dev);
  ASSERT_EQ(m.stages.size(), 1u);
  EXPECT_GT(m.stages[0].computed_points(), 0);
  EXPECT_GT(m.totals.working_set_bytes, 0);
  EXPECT_EQ(m.totals.tex_bytes,
            m.totals.read_line_requests * m.line_bytes);
}

TEST(MeasurePlan, ComparatorBoundsOnRealPlan) {
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  KernelConfig cfg;
  cfg.block = {8, 8, 4};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  const PlanMetrics m = measure_plan(plan, gs, dev);
  const auto predicted = gpumodel::evaluate(plan, dev, {}).counters;
  const ModelVsMeasured d = compare_counters(predicted, m);
  for (const Delta* delta :
       {&d.flops, &d.tex_bytes, &d.dram_read_bytes, &d.dram_write_bytes,
        &d.dram_bytes, &d.shm_bytes, &d.oi_dram, &d.oi_tex}) {
    EXPECT_GE(delta->rel_error(), -1.0);
    EXPECT_LE(delta->rel_error(), 1.0);
    EXPECT_GE(delta->measured, 0.0);
    EXPECT_GE(delta->predicted, 0.0);
  }
  // Both sides agree there is real traffic and real compute.
  EXPECT_GT(d.flops.measured, 0.0);
  EXPECT_GT(d.dram_bytes.measured, 0.0);
  EXPECT_GT(d.tex_bytes.measured, 0.0);
}

// ---- observability must not perturb tuning --------------------------------

class ObservabilityJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = str_cat("/tmp/artemis_metrics_",
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name(),
                    ".wal");
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    telemetry::Collector::global().disable();
    telemetry::Collector::global().clear();
  }

  std::string read_file() const {
    std::ifstream in(path_);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string path_;
};

TEST_F(ObservabilityJournalTest, JournalBytesIdenticalWithEventsOn) {
  // The leaderboard/space events ride the serial commit path; with
  // telemetry recording them, the tuning journal must still be
  // byte-identical across jobs values (events observe, never reorder).
  const ir::Program prog = dsl::parse(artemis::testing::kJacobiDsl);
  const auto dev = gpumodel::p100();
  const auto factory = [&](const KernelConfig& cfg) {
    return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  };

  std::string serial_bytes;
  std::int64_t serial_changes = -1;
  for (const int jobs : {1, 4}) {
    std::remove(path_.c_str());
    telemetry::Collector::global().clear();
    telemetry::Collector::global().enable();
    robust::TuningJournal journal;
    ASSERT_EQ(journal.open(path_, "obs-eq", /*resume=*/false).status,
              robust::JournalLoadResult::Status::Fresh);
    autotune::TuneOptions opts;
    opts.max_block = 16;
    opts.max_unroll_bandwidth = 2;
    opts.register_budgets = {64, 128};
    opts.jobs = jobs;
    opts.journal = &journal;
    const auto r =
        autotune::hierarchical_tune(factory, KernelConfig{}, dev, {}, opts);
    EXPECT_GT(journal.recorded(), 0u);
    EXPECT_FALSE(r.leaderboard.empty());

    const auto counters = telemetry::Collector::global().counters();
    const auto counter = [&](const char* name) -> std::int64_t {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    };
    // The new observability counters fired, coverage never exceeds the
    // unpruned cross product, and every configuration a sweep enumerates
    // is committed exactly once.
    EXPECT_GT(counter("tuner.leaderboard_changes"), 0);
    EXPECT_GT(counter("tuner.space_unpruned"), 0);
    EXPECT_GT(counter("tuner.space_enumerated"), 0);
    EXPECT_LE(counter("tuner.space_enumerated"),
              counter("tuner.space_unpruned"));
    EXPECT_EQ(counter("tuner.space_enumerated"), counter("tuner.enumerated"));
    telemetry::Collector::global().disable();

    if (jobs == 1) {
      serial_bytes = read_file();
      serial_changes = counter("tuner.leaderboard_changes");
    } else {
      EXPECT_EQ(read_file(), serial_bytes) << "jobs=" << jobs;
      // The event stream itself is jobs-invariant (serial commit).
      EXPECT_EQ(counter("tuner.leaderboard_changes"), serial_changes);
    }
  }
}

}  // namespace
}  // namespace artemis::metrics
