// AVX2 kernels: 2 complex doubles (4 lanes) per 256-bit vector.
//
// Bitwise contract with kernels_scalar.cpp: every lane performs exactly
// the scalar operation sequence — multiplies and adds/subs only, no FMA
// (the TU is built with -ffp-contract=off and uses no fma intrinsics),
// and value selection is done with blends, never with arithmetic
// identities like x + 0.0 (which would turn -0.0 into +0.0). The complex
// product uses addsub to land
//   re' = a.re*b.re - a.im*b.im
//   im' = a.im*b.re + a.re*b.im
// which matches std::complex's non-NaN fast path exactly (the imaginary
// sum is the same two addends, and IEEE addition is commutative). Like
// the scalar reference, inputs are assumed finite: the C99 Inf-recovery
// fixup of std::complex multiplication is out of contract.
#include <cstddef>

#if defined(TAGBREATHE_HAVE_AVX2_TU)

#include <immintrin.h>

#include "common/units.hpp"
#include "signal/simd/kernels.hpp"

namespace tagbreathe::signal::simd {

namespace {

// Complex product of the two packed complex values in `v` by those in
// `w`: [v0*w0, v1*w1].
inline __m256d mul_packed(__m256d v, __m256d w) {
  const __m256d wr = _mm256_unpacklo_pd(w, w);       // [w0.re w0.re w1.re w1.re]
  const __m256d wi = _mm256_unpackhi_pd(w, w);       // [w0.im w0.im w1.im w1.im]
  const __m256d vs = _mm256_shuffle_pd(v, v, 0x5);   // [v0.im v0.re v1.im v1.re]
  return _mm256_addsub_pd(_mm256_mul_pd(v, wr), _mm256_mul_pd(vs, wi));
}

void butterfly_stage_avx2(cdouble* d, std::size_t n, std::size_t half,
                          const cdouble* tw) {
  double* const dd = reinterpret_cast<double*>(d);
  const double* const twd = reinterpret_cast<const double*>(tw);
  if (half == 1) {
    // len == 2: u/v are adjacent, tw[0] == (1, 0). Keep the multiply —
    // v * (1,0) is not a bitwise no-op for every v, and the scalar
    // reference performs it.
    for (std::size_t i = 0; i < n; i += 2) {
      const cdouble u = d[i];
      const cdouble v = d[i + 1] * tw[0];
      d[i] = u + v;
      d[i + 1] = u - v;
    }
    return;
  }
  // half >= 2 and even: the k loop vectorizes with no tail.
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    double* const a = dd + 2 * i;
    double* const b = dd + 2 * (i + half);
    for (std::size_t k = 0; k < half; k += 2) {
      const __m256d u = _mm256_loadu_pd(a + 2 * k);
      const __m256d v = _mm256_loadu_pd(b + 2 * k);
      const __m256d w = _mm256_loadu_pd(twd + 2 * k);
      const __m256d t = mul_packed(v, w);
      _mm256_storeu_pd(a + 2 * k, _mm256_add_pd(u, t));
      _mm256_storeu_pd(b + 2 * k, _mm256_sub_pd(u, t));
    }
  }
}

void complex_mul_avx2(cdouble* dst, const cdouble* a, const cdouble* b,
                      std::size_t n) {
  double* const dp = reinterpret_cast<double*>(dst);
  const double* const ap = reinterpret_cast<const double*>(a);
  const double* const bp = reinterpret_cast<const double*>(b);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d va = _mm256_loadu_pd(ap + 2 * k);
    const __m256d vb = _mm256_loadu_pd(bp + 2 * k);
    _mm256_storeu_pd(dp + 2 * k, mul_packed(va, vb));
  }
  for (; k < n; ++k) dst[k] = a[k] * b[k];
}

void complex_scale_avx2(cdouble* d, std::size_t n, double s) {
  double* const dp = reinterpret_cast<double*>(d);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2)
    _mm256_storeu_pd(dp + 2 * k, _mm256_mul_pd(_mm256_loadu_pd(dp + 2 * k), vs));
  for (; k < n; ++k) d[k] *= s;
}

void phase_deltas_avx2(const double* dphase, const double* scale, double* out,
                       std::size_t n) {
  using tagbreathe::common::kPi;
  using tagbreathe::common::kTwoPi;
  // wrap_phase_pi(x) = r(x + pi) - pi with r = fmod into [0, 2pi). For
  // y = x + pi in (-2pi, 0) the fmod reduces to y + 2pi, for [0, 2pi)
  // to y itself, and for [2pi, 4pi) to y - 2pi (exact by Sterbenz since
  // 2pi <= y < 2*2pi) — all reproduced here with blends. Lanes with y
  // outside (-2pi, 4pi) take the scalar fmod path.
  const __m256d vpi = _mm256_set1_pd(kPi);
  const __m256d vtwo_pi = _mm256_set1_pd(kTwoPi);
  const __m256d vneg_two_pi = _mm256_set1_pd(-kTwoPi);
  const __m256d vfour_pi = _mm256_add_pd(vtwo_pi, vtwo_pi);  // exact: 2*2pi
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d x = _mm256_loadu_pd(dphase + k);
    const __m256d y = _mm256_add_pd(x, vpi);
    const __m256d in_range =
        _mm256_and_pd(_mm256_cmp_pd(y, vneg_two_pi, _CMP_GT_OQ),
                      _mm256_cmp_pd(y, vfour_pi, _CMP_LT_OQ));
    if (_mm256_movemask_pd(in_range) != 0xF) {
      for (std::size_t j = k; j < k + 4; ++j)
        out[j] = scale[j] * common::wrap_phase_pi(dphase[j]);
      continue;
    }
    __m256d r = y;
    r = _mm256_blendv_pd(r, _mm256_add_pd(y, vtwo_pi),
                         _mm256_cmp_pd(y, _mm256_setzero_pd(), _CMP_LT_OQ));
    r = _mm256_blendv_pd(r, _mm256_sub_pd(y, vtwo_pi),
                         _mm256_cmp_pd(y, vtwo_pi, _CMP_GE_OQ));
    const __m256d wrapped = _mm256_sub_pd(r, vpi);
    _mm256_storeu_pd(out + k,
                     _mm256_mul_pd(_mm256_loadu_pd(scale + k), wrapped));
  }
  for (; k < n; ++k) out[k] = scale[k] * common::wrap_phase_pi(dphase[k]);
}

// Four bins per vector; each lane sums its bin's rows in row order, so
// every bin sees the scalar reference's operation sequence. Eight bins
// per pass keep four independent add chains in flight.
void band_analysis_avx2(const double* s, const double* d, std::size_t rows,
                        const double* table, std::size_t bins, double* re,
                        double* im) {
  const std::size_t stride = 2 * bins;
  std::size_t k = 0;
  for (; k + 8 <= bins; k += 8) {
    __m256d re0 = _mm256_loadu_pd(re + k);
    __m256d re1 = _mm256_loadu_pd(re + k + 4);
    __m256d im0 = _mm256_loadu_pd(im + k);
    __m256d im1 = _mm256_loadu_pd(im + k + 4);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* const c = table + r * stride + k;
      const __m256d vs = _mm256_set1_pd(s[r]);
      const __m256d vd = _mm256_set1_pd(d[r]);
      re0 = _mm256_add_pd(re0, _mm256_mul_pd(vs, _mm256_loadu_pd(c)));
      re1 = _mm256_add_pd(re1, _mm256_mul_pd(vs, _mm256_loadu_pd(c + 4)));
      im0 = _mm256_add_pd(im0, _mm256_mul_pd(vd, _mm256_loadu_pd(c + bins)));
      im1 = _mm256_add_pd(im1,
                          _mm256_mul_pd(vd, _mm256_loadu_pd(c + bins + 4)));
    }
    _mm256_storeu_pd(re + k, re0);
    _mm256_storeu_pd(re + k + 4, re1);
    _mm256_storeu_pd(im + k, im0);
    _mm256_storeu_pd(im + k + 4, im1);
  }
  for (; k + 4 <= bins; k += 4) {
    __m256d re0 = _mm256_loadu_pd(re + k);
    __m256d im0 = _mm256_loadu_pd(im + k);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* const c = table + r * stride + k;
      re0 = _mm256_add_pd(
          re0, _mm256_mul_pd(_mm256_set1_pd(s[r]), _mm256_loadu_pd(c)));
      im0 = _mm256_add_pd(
          im0, _mm256_mul_pd(_mm256_set1_pd(d[r]), _mm256_loadu_pd(c + bins)));
    }
    _mm256_storeu_pd(re + k, re0);
    _mm256_storeu_pd(im + k, im0);
  }
  for (; k < bins; ++k) {
    double rk = re[k];
    double ik = im[k];
    for (std::size_t r = 0; r < rows; ++r) {
      const double* const c = table + r * stride + k;
      rk = rk + s[r] * c[0];
      ik = ik + d[r] * c[bins];
    }
    re[k] = rk;
    im[k] = ik;
  }
}

// (l0 + l1) + (l2 + l3), the band_synthesis lane fold.
inline double fold_lanes(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);   // [l0 l1]
  const __m128d hi = _mm256_extractf128_pd(v, 1);  // [l2 l3]
  const __m128d pairs = _mm_hadd_pd(lo, hi);        // [l0+l1 l2+l3]
  return _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)));
}

void band_synthesis_avx2(const double* a, const double* b, std::size_t count,
                         const double* table, std::size_t bins,
                         std::size_t row_step, std::size_t rows, double scale,
                         double* plus, double* minus) {
  const std::size_t whole = count - count % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* const row = table + r * row_step;
    __m256d vc = _mm256_setzero_pd();
    __m256d vs = _mm256_setzero_pd();
    for (std::size_t j = 0; j < whole; j += 4) {
      vc = _mm256_add_pd(
          vc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(row + j)));
      vs = _mm256_add_pd(vs, _mm256_mul_pd(_mm256_loadu_pd(b + j),
                                           _mm256_loadu_pd(row + bins + j)));
    }
    double c = fold_lanes(vc);
    double s = fold_lanes(vs);
    for (std::size_t j = whole; j < count; ++j) {
      c = c + a[j] * row[j];
      s = s + b[j] * row[bins + j];
    }
    plus[r] = (c + s) * scale;
    minus[r] = (c - s) * scale;
  }
}

}  // namespace

const DspKernels& avx2_kernels() noexcept {
  static constexpr DspKernels k{
      &butterfly_stage_avx2,
      &complex_mul_avx2,
      &complex_scale_avx2,
      &phase_deltas_avx2,
      &band_analysis_avx2,
      &band_synthesis_avx2,
  };
  return k;
}

}  // namespace tagbreathe::signal::simd

#endif  // TAGBREATHE_HAVE_AVX2_TU
