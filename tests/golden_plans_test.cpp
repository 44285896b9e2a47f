// Golden plans for the paper's 11 Table I stencils. Tuning each one at
// paper extents through ArtemisContext must reproduce, byte for byte, the
// durable plan record, every kernel's configuration line and every
// leaderboard entry recorded in tests/golden/paper_plans.txt — at jobs 1,
// and at jobs 4, where pool workers share each tune's plan template.
//
// Each scheduled kernel's recipe must also rebuild the plan it was tuned
// as: driver::kernel_plan evaluates bitwise to the kernel's eval. This
// covers fission (hypterm, diffterm, rhs4sgcurv), the global version
// (addsgd6) and the four iterative stencils.
//
// The file pins plans across commits: a change that moves any plan has to
// update it on purpose. On a mismatch the test writes the lines it
// produced to paper_plans.actual.txt in its working directory; diff that
// against the golden file, and copy it over when the move is intended.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "artemis/autotune/search.hpp"
#include "artemis/common/str.hpp"
#include "artemis/driver/context.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "recipe_check.hpp"

#ifndef ARTEMIS_GOLDEN_DIR
#error "build must define ARTEMIS_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace artemis::driver {
namespace {

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One stencil's tune as golden-file lines: the plan record, then each
/// kernel and its leaderboard, best first.
void append_lines(const std::string& name, const TuneOutcome& out,
                  std::ostringstream& os) {
  os << "stencil " << name << "\n";
  std::istringstream plan(out.plan_bytes);
  for (std::string line; std::getline(plan, line);) {
    os << "plan " << line << "\n";
  }
  for (const auto& k : out.result.kernels) {
    os << "kernel " << k.name << " x" << k.invocations << " "
       << autotune::serialize_config(k.config) << "\n";
    for (std::size_t r = 0; r < k.leaderboard.size(); ++r) {
      os << "board " << k.name << " " << r << " "
         << autotune::serialize_config(k.leaderboard[r].config)
         << " time_s=" << exact(k.leaderboard[r].time_s) << "\n";
    }
  }
}

std::string tune_paper_stencils(int jobs) {
  ContextOptions opts;
  opts.jobs = jobs;
  ArtemisContext ctx(opts);
  std::ostringstream os;
  for (const auto& b : stencils::paper_benchmarks()) {
    const TuneOutcome out = ctx.tune(b.dsl());
    testing::expect_recipes_rebuild(out.result, opts.device, opts.params,
                                    str_cat(b.name, " at jobs ", jobs));
    append_lines(b.name, out, os);
  }
  return os.str();
}

std::string golden() {
  const std::string path =
      std::string(ARTEMIS_GOLDEN_DIR) + "/paper_plans.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_golden(int jobs) {
  const std::string actual = tune_paper_stencils(jobs);
  if (actual == golden()) return;
  std::ofstream("paper_plans.actual.txt") << actual;
  ADD_FAILURE() << "plans at jobs " << jobs
                << " differ from tests/golden/paper_plans.txt; "
                   "paper_plans.actual.txt holds what this build produced";
}

TEST(GoldenPlans, PaperStencilsAtJobs1) { expect_golden(1); }

TEST(GoldenPlans, PaperStencilsAtJobs4) { expect_golden(4); }

}  // namespace
}  // namespace artemis::driver
