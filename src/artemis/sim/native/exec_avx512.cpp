// AVX-512F tier: 8-wide double lanes. Compiled (alone) with -mavx512f;
// anonymous-namespace structure as in exec_avx2.cpp. Min/Max use
// mask-compare + blend to match scalar std::min/std::max on NaN and ±0;
// sign-bit ops go through the integer domain because _mm512_xor_pd
// requires AVX512DQ, which plain -mavx512f does not provide.

#include "artemis/sim/native/native.hpp"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace artemis::sim::native {
namespace {

struct Backend {
  static constexpr std::int64_t kWidth = 8;
  using Vec = __m512d;
  static Vec broadcast(double v) { return _mm512_set1_pd(v); }
  static Vec loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  static Vec min_(Vec a, Vec b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(b, a, _CMP_LT_OQ), a, b);
  }
  static Vec max_(Vec a, Vec b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ), a, b);
  }
  static Vec neg(Vec a) {
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a),
        _mm512_castpd_si512(_mm512_set1_pd(-0.0))));
  }
  static Vec fabs_(Vec a) {
    return _mm512_castsi512_pd(_mm512_andnot_si512(
        _mm512_castpd_si512(_mm512_set1_pd(-0.0)),
        _mm512_castpd_si512(a)));
  }
  static Vec sqrt_(Vec a) { return _mm512_sqrt_pd(a); }
  static Vec exp_(Vec a) {
    alignas(64) double b[8];
    _mm512_store_pd(b, a);
    for (double& x : b) x = std::exp(x);
    return _mm512_load_pd(b);
  }
  static Vec log_(Vec a) {
    alignas(64) double b[8];
    _mm512_store_pd(b, a);
    for (double& x : b) x = std::log(x);
    return _mm512_load_pd(b);
  }
  static Vec pow_(Vec a, Vec b) {
    alignas(64) double ba[8], bb[8];
    _mm512_store_pd(ba, a);
    _mm512_store_pd(bb, b);
    for (int l = 0; l < 8; ++l) ba[l] = std::pow(ba[l], bb[l]);
    return _mm512_load_pd(ba);
  }
};

#include "artemis/sim/native/exec_common.inl"

}  // namespace

void run_box_avx512(const LinearProgram& lp, const ArrayView* views,
                    const double* scalars, const BcRegion& box,
                    const BcRegion& commit, bool drop_outside_commit) {
  run_box_impl<Backend>(lp, views, scalars, box, commit,
                        drop_outside_commit);
}

}  // namespace artemis::sim::native

#else  // non-x86 or AVX-512F not enabled for this TU: degrade to scalar.

namespace artemis::sim::native {

void run_box_avx512(const LinearProgram& lp, const ArrayView* views,
                    const double* scalars, const BcRegion& box,
                    const BcRegion& commit, bool drop_outside_commit) {
  run_box_scalar(lp, views, scalars, box, commit, drop_outside_commit);
}

}  // namespace artemis::sim::native

#endif
