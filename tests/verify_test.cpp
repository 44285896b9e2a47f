// The verification harness must itself be trustworthy: properties pass
// on the known-good paper kernels, the shrinker actually minimizes, the
// corpus round-trips through disk, and the differential oracle detects
// corruption rather than vacuously agreeing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "artemis/common/rng.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/dsl/printer.hpp"
#include "artemis/verify/corpus.hpp"
#include "artemis/verify/oracle.hpp"
#include "artemis/verify/shrink.hpp"
#include "artemis/verify/verify.hpp"
#include "test_programs.hpp"

namespace artemis::verify {
namespace {

using testing::kDagDsl;
using testing::kJacobiDsl;
using testing::kJacobiIterativeDsl;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("artemis-verify-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(VerifyProperties, NamedProgramsPassEveryFamily) {
  const char* sources[] = {kJacobiDsl, kJacobiIterativeDsl, kDagDsl};
  for (const char* src : sources) {
    const ir::Program prog = dsl::parse(src);
    for (Property p : all_properties()) {
      const CheckResult r = check_property(p, prog, 7);
      EXPECT_TRUE(r.ok) << property_name(p) << ": " << r.detail;
    }
  }
}

TEST(VerifyProperties, NamesRoundTrip) {
  for (Property p : all_properties()) {
    const auto back = property_by_name(property_name(p));
    ASSERT_TRUE(back.has_value()) << property_name(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(property_by_name("no-such-family").has_value());
}

TEST(VerifyShrink, MinimizesToTheFailureKernel) {
  // Synthetic failure: "some statement reads at offset -3". The shrinker
  // should strip the program down to (nearly) just that access.
  const ir::Program big = dsl::parse(R"(
    parameter L=16, M=16, N=16;
    iterator k, j, i;
    double a[L,M,N], t[L,M,N], o[L,M,N], w[N], s;
    copyin a, w, s;
    #pragma block (16,8) unroll j=2
    stencil f (T, A, W, s) {
      #assign shmem (A)
      double c = s * 2.0;
      T[k][j][i] = c * (A[k][j][i-3] + A[k][j][i+1] + W[i]);
      T[k][j][i] += A[k][j-1][i];
    }
    stencil g (O, T) {
      O[k][j][i] = T[k][j][i] + T[k-1][j][i] + T[k+1][j][i];
    }
    f (t, a, w, s);
    g (o, t);
    copyout o;
  )");
  const auto has_minus3 = [](const ir::Program& p) {
    for (const auto& def : p.stencils) {
      for (const auto& stmt : def.stmts) {
        bool found = false;
        ir::visit(*stmt.rhs, [&](const ir::Expr& e) {
          if (e.kind != ir::ExprKind::ArrayRef) return;
          for (const auto& idx : e.indices) {
            if (idx.offset == -3) found = true;
          }
        });
        if (found) return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(has_minus3(big));
  ShrinkStats stats;
  const ir::Program small = shrink_program(big, has_minus3, {}, &stats);
  EXPECT_TRUE(has_minus3(small));
  EXPECT_GT(stats.rounds, 0);
  // The unrelated second stage must be gone and the failing stencil
  // reduced to a single statement.
  EXPECT_EQ(small.stencils.size(), 1u);
  ASSERT_EQ(small.stencils[0].stmts.size(), 1u);
  // Extents shrink below the original 16.
  for (const auto& param : small.params) EXPECT_LE(param.value, 8);
  // The minimized program is still a valid, printable program.
  EXPECT_NO_THROW(dsl::parse(dsl::print_program(small)));
}

TEST(VerifyCorpus, WriteLoadReplayRoundTrip) {
  TempDir dir;
  const ir::Program prog = dsl::parse(kDagDsl);
  const std::string path =
      write_reproducer(dir.str(), Property::EngineEquivalence, 99,
                       "detail line\nwith a newline", prog);
  EXPECT_NE(path.find("engine-equivalence-99.dsl"), std::string::npos);

  const auto entries = load_corpus(dir.str());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].property, Property::EngineEquivalence);
  EXPECT_EQ(entries[0].seed, 99u);
  // The detail was sanitized to one line.
  EXPECT_EQ(entries[0].detail.find('\n'), std::string::npos);

  const CheckResult r = replay_entry(entries[0]);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(VerifyCorpus, MalformedHeaderFailsLoudly) {
  TempDir dir;
  {
    std::ofstream out(dir.str() + "/broken.dsl");
    out << "// not a reproducer header\nparameter N=8;\n";
  }
  const auto entries = load_corpus(dir.str());
  ASSERT_EQ(entries.size(), 1u);
  const CheckResult r = replay_entry(entries[0]);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("broken.dsl"), std::string::npos);
}

TEST(VerifyOracle, GridsDiffDetectsCorruption) {
  const ir::Program prog = dsl::parse(kDagDsl);
  Rng rng(5);
  const auto cfg = random_config(rng, 3);
  sim::GridSet a = sim::GridSet::from_program(prog, 11);
  run_program_oracle(prog, a);
  RunResult b = run_program_plans(prog, cfg, /*fuse=*/false, 11, {.jobs = 1});
  EXPECT_EQ(grids_diff(a, b.gs), "");
  b.gs.grid("out").at(5, 5, 5) += 1e-13;
  const std::string diff = grids_diff(a, b.gs);
  EXPECT_NE(diff.find("out"), std::string::npos) << diff;
}

TEST(VerifyOracle, SkipSetIgnoresExactlyTheNamedGrids) {
  const ir::Program prog = dsl::parse(kDagDsl);
  sim::GridSet a = sim::GridSet::from_program(prog, 3);
  sim::GridSet b = a.clone();
  b.grid("tmp").at(1, 1, 1) += 1.0;
  EXPECT_NE(grids_diff(a, b), "");
  EXPECT_NE(grids_ulp_diff(a, b, 64), "");
  EXPECT_EQ(grids_diff(a, b, {"tmp"}), "");
  EXPECT_EQ(grids_ulp_diff(a, b, 64, {"tmp"}), "");
  EXPECT_NE(grids_diff(a, b, {"out", "u"}), "");
  b.grid("out").at(1, 1, 1) += 1.0;
  const std::string diff = grids_diff(a, b, {"tmp"});
  EXPECT_NE(diff.find("'out'"), std::string::npos) << diff;
  EXPECT_NE(grids_ulp_diff(a, b, 64, {"tmp"}), "");

  // A fused DAG keeps `tmp` in scratch only, unless it is copied out.
  codegen::KernelConfig cfg;
  cfg.block = {8, 4, 2};
  EXPECT_EQ(run_program_plans(prog, cfg, /*fuse=*/true, 3, {.jobs = 1})
                .scratch_only,
            (std::set<std::string>{"tmp"}));
  EXPECT_TRUE(run_program_plans(dsl::parse(testing::dag_materialized_dsl()),
                                cfg, /*fuse=*/true, 3, {.jobs = 1})
                  .scratch_only.empty());
  EXPECT_TRUE(run_program_plans(prog, cfg, /*fuse=*/false, 3, {.jobs = 1})
                  .scratch_only.empty());
}

TEST(VerifyOracle, GridsDiffIsBitwise) {
  const ir::Program prog = dsl::parse(kDagDsl);
  sim::GridSet a = sim::GridSet::from_program(prog, 3);
  sim::GridSet b = a.clone();
  EXPECT_EQ(grids_diff(a, b), "");
  // -0.0 == 0.0 numerically, but the oracle must tell them apart.
  a.grid("out").at(0, 0, 0) = 0.0;
  b.grid("out").at(0, 0, 0) = -0.0;
  EXPECT_NE(grids_diff(a, b), "");
}

TEST(VerifyRun, SmallSweepIsClean) {
  TempDir dir;
  VerifyOptions opts;
  opts.seed_count = 4;
  opts.corpus_dir = dir.str();
  const VerifyReport rep = run_verify(opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  // 3 named kernels + 4 random programs.
  EXPECT_EQ(rep.programs_checked, 7);
  EXPECT_GT(rep.checks_run, 7);
  // A clean run writes nothing into the corpus.
  EXPECT_TRUE(load_corpus(dir.str()).empty());
}

TEST(VerifyRun, SingleProgramPath) {
  VerifyOptions opts;
  opts.properties = {Property::RoundTrip, Property::EngineEquivalence};
  const VerifyReport rep = verify_program(dsl::parse(kJacobiDsl), opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.programs_checked, 1);
  EXPECT_EQ(rep.checks_run, 2);
}

}  // namespace
}  // namespace artemis::verify
