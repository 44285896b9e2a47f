// AVX2 tier: 4-wide double lanes. This translation unit (alone) is
// compiled with -mavx2; everything it defines lives in an anonymous
// namespace so no AVX-encoded symbol can be linker-folded into another
// tier's dispatch path.
//
// Lane ops are chosen to be IEEE-identical to the scalar operators,
// including the cases raw vector min/max get wrong: VMINPD/VMAXPD return
// the second operand on NaN and order ±0 differently, so Min/Max are
// expressed as compare + blend exactly like `b < a ? b : a`. Negation and
// fabs are sign-bit XOR/ANDNOT — the same bit operation the scalar
// codegen performs. Exp/Log/Pow have no exact vector form, so they run
// libm lane-wise through a store/compute/load bounce, preserving
// bit-identity at vector cost only for the transcendental kernels.

#include "artemis/sim/native/native.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace artemis::sim::native {
namespace {

struct Backend {
  static constexpr std::int64_t kWidth = 4;
  using Vec = __m256d;
  static Vec broadcast(double v) { return _mm256_set1_pd(v); }
  static Vec loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec min_(Vec a, Vec b) {
    return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
  }
  static Vec max_(Vec a, Vec b) {
    return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
  static Vec neg(Vec a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static Vec fabs_(Vec a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  static Vec sqrt_(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec exp_(Vec a) {
    alignas(32) double b[4];
    _mm256_store_pd(b, a);
    for (double& x : b) x = std::exp(x);
    return _mm256_load_pd(b);
  }
  static Vec log_(Vec a) {
    alignas(32) double b[4];
    _mm256_store_pd(b, a);
    for (double& x : b) x = std::log(x);
    return _mm256_load_pd(b);
  }
  static Vec pow_(Vec a, Vec b) {
    alignas(32) double ba[4], bb[4];
    _mm256_store_pd(ba, a);
    _mm256_store_pd(bb, b);
    for (int l = 0; l < 4; ++l) ba[l] = std::pow(ba[l], bb[l]);
    return _mm256_load_pd(ba);
  }
};

#include "artemis/sim/native/exec_common.inl"

}  // namespace

void run_box_avx2(const LinearProgram& lp, const ArrayView* views,
                  const double* scalars, const BcRegion& box,
                  const BcRegion& commit, bool drop_outside_commit) {
  run_box_impl<Backend>(lp, views, scalars, box, commit,
                        drop_outside_commit);
}

}  // namespace artemis::sim::native

#else  // non-x86 or AVX2 not enabled for this TU: degrade to scalar.

namespace artemis::sim::native {

void run_box_avx2(const LinearProgram& lp, const ArrayView* views,
                  const double* scalars, const BcRegion& box,
                  const BcRegion& commit, bool drop_outside_commit) {
  run_box_scalar(lp, views, scalars, box, commit, drop_outside_commit);
}

}  // namespace artemis::sim::native

#endif
