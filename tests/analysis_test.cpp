#include <gtest/gtest.h>

#include <algorithm>

#include "artemis/dsl/parser.hpp"
#include "artemis/ir/analysis.hpp"
#include "test_programs.hpp"

namespace artemis::ir {
namespace {

using artemis::testing::kDagDsl;
using artemis::testing::kJacobiDsl;
using artemis::testing::kJacobiIterativeDsl;

TEST(Binding, SubstitutesActualNames) {
  const Program p = dsl::parse(kJacobiDsl);
  const BoundStencil b = bind_call(p, p.steps[0].call);
  EXPECT_EQ(b.name, "jacobi");
  ASSERT_EQ(b.stmts.size(), 2u);
  EXPECT_EQ(b.stmts[1].lhs_name, "out");
  bool saw_in = false;
  visit(*b.stmts[1].rhs, [&](const Expr& e) {
    if (e.kind == ExprKind::ArrayRef) {
      EXPECT_EQ(e.name, "in");
      saw_in = true;
    }
  });
  EXPECT_TRUE(saw_in);
}

TEST(Binding, PrefixesLocals) {
  const Program p = dsl::parse(kJacobiDsl);
  const BoundStencil b = bind_call(p, p.steps[0].call, "s0_");
  EXPECT_EQ(b.stmts[0].lhs_name, "s0_c");
  bool saw_local = false;
  visit(*b.stmts[1].rhs, [&](const Expr& e) {
    if (e.kind == ExprKind::ScalarRef && e.name == "s0_c") saw_local = true;
  });
  EXPECT_TRUE(saw_local);
}

TEST(Binding, MapsResourceAssignments) {
  const Program p = dsl::parse(kDagDsl);
  const BoundStencil b = bind_call(p, p.steps[0].call);
  EXPECT_EQ(b.resources.lookup("u"), MemSpace::Shared);
  EXPECT_EQ(b.resources.lookup("w"), MemSpace::Global);
}

TEST(FlattenSteps, ExpandsIterate) {
  const Program p = dsl::parse(kJacobiIterativeDsl);
  const auto steps = flatten_steps(p);
  ASSERT_EQ(steps.size(), 8u);  // 4 iterations x (call + swap)
  EXPECT_EQ(steps[0].kind, ExecStep::Kind::Stencil);
  EXPECT_EQ(steps[1].kind, ExecStep::Kind::Swap);
  EXPECT_EQ(steps[7].kind, ExecStep::Kind::Swap);
}

TEST(Analyze, JacobiCharacteristics) {
  const Program p = dsl::parse(kJacobiDsl);
  const StencilInfo info = analyze(p, bind_call(p, p.steps[0].call));
  EXPECT_EQ(info.order, 1);
  EXPECT_EQ(info.radius, (std::array<int, 3>{1, 1, 1}));
  // Listing 1 body: 1 (c = b*h2inv) + per-point ops. The paper's Table I
  // counts 10 FLOPs for the 7pt smoother update itself.
  EXPECT_EQ(info.num_io_arrays, 2);
  EXPECT_EQ(info.outputs, (std::vector<std::string>{"out"}));
  ASSERT_EQ(info.inputs.size(), 1u);
  EXPECT_EQ(info.inputs[0], "in");
  EXPECT_GE(info.flops_per_point, 10);
  EXPECT_TRUE(info.scalars_read.count("h2inv"));
  EXPECT_TRUE(info.scalars_read.count("a"));
  // The local temp c is not an external scalar.
  EXPECT_FALSE(info.scalars_read.count("c"));
}

TEST(Analyze, DistinctReadOffsets) {
  const Program p = dsl::parse(kJacobiDsl);
  const StencilInfo info = analyze(p, bind_call(p, p.steps[0].call));
  const auto& in_info = info.arrays.at("in");
  // 7 points, but A[k][j][i] appears twice syntactically -> 7 distinct.
  EXPECT_EQ(in_info.read_offsets.size(), 7u);
  EXPECT_TRUE(in_info.read);
  EXPECT_FALSE(in_info.written);
}

TEST(Analyze, OneDArrayRadius) {
  const Program p = dsl::parse(kDagDsl);
  const StencilInfo info = analyze(p, bind_call(p, p.steps[0].call));
  const auto& w_info = info.arrays.at("w");
  EXPECT_EQ(w_info.dims, 1);
  EXPECT_EQ(w_info.radius, (std::array<int, 3>{0, 0, 0}));
  const auto& u_info = info.arrays.at("u");
  EXPECT_EQ(u_info.radius, (std::array<int, 3>{0, 0, 1}));
}

TEST(Analyze, HighOrderRadius) {
  const Program p = dsl::parse(R"(
    parameter L=8, M=8, N=8;
    iterator k, j, i;
    double a[L,M,N], b[L,M,N];
    stencil s (B, A) {
      B[k][j][i] = A[k-2][j][i] + A[k][j+3][i] + A[k][j][i-1];
    }
    s (b, a);
  )");
  const StencilInfo info = analyze(p, bind_call(p, p.steps[0].call));
  EXPECT_EQ(info.radius, (std::array<int, 3>{2, 3, 1}));
  EXPECT_EQ(info.order, 3);
}

TEST(Analyze, FlopCountMatchesExprCount) {
  const Program p = dsl::parse(R"(
    parameter N=8;
    iterator i;
    double a[N], b[N];
    stencil s (B, A) { B[i] = A[i] * 2.0 + A[i-1] / 3.0 - 1.0; }
    s (b, a);
  )");
  const StencilInfo info = analyze(p, bind_call(p, p.steps[0].call));
  EXPECT_EQ(info.flops_per_point, 4);  // * + / -
}

}  // namespace
}  // namespace artemis::ir
