// Portable scalar tier: the same linearized register program the SIMD
// tiers run, with Vec = double. This is the semantics model the wide
// tiers must match lane-for-lane, and the fallback on hosts (or builds)
// without AVX2.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "artemis/sim/native/native.hpp"

namespace artemis::sim::native {
namespace {

struct Backend {
  static constexpr std::int64_t kWidth = 1;
  using Vec = double;
  static Vec broadcast(double v) { return v; }
  static Vec loadu(const double* p) { return *p; }
  static void storeu(double* p, Vec v) { *p = v; }
  static Vec add(Vec a, Vec b) { return a + b; }
  static Vec sub(Vec a, Vec b) { return a - b; }
  static Vec mul(Vec a, Vec b) { return a * b; }
  static Vec div(Vec a, Vec b) { return a / b; }
  static Vec min_(Vec a, Vec b) { return std::min(a, b); }
  static Vec max_(Vec a, Vec b) { return std::max(a, b); }
  static Vec neg(Vec a) { return -a; }
  static Vec fabs_(Vec a) { return std::fabs(a); }
  static Vec sqrt_(Vec a) { return std::sqrt(a); }
  static Vec exp_(Vec a) { return std::exp(a); }
  static Vec log_(Vec a) { return std::log(a); }
  static Vec pow_(Vec a, Vec b) { return std::pow(a, b); }
};

#include "artemis/sim/native/exec_common.inl"

}  // namespace

void run_box_scalar(const LinearProgram& lp, const ArrayView* views,
                    const double* scalars, const BcRegion& box,
                    const BcRegion& commit, bool drop_outside_commit) {
  run_box_impl<Backend>(lp, views, scalars, box, commit,
                        drop_outside_commit);
}

}  // namespace artemis::sim::native
