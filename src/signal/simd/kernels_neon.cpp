// NEON (AArch64) kernels: one complex double (float64x2) per vector for
// the complex loops, two reals per vector for phase deltas.
//
// Same bitwise contract as kernels_avx2.cpp: multiplies and adds/subs
// only (no vfma — the TU is also built with -ffp-contract=off so the
// compiler cannot fuse the intrinsic pairs) and selection by bit-select
// (vbsl). NEON has no addsub, so the complex product's real lane uses
// a + (-b), which is bitwise a - b in IEEE 754. Inputs are assumed
// finite, matching the scalar reference's non-NaN fast path.
#include <cstddef>

#if defined(TAGBREATHE_HAVE_NEON_TU)

#include <arm_neon.h>

#include <cstdint>

#include "common/units.hpp"
#include "signal/simd/kernels.hpp"

namespace tagbreathe::signal::simd {

namespace {

// Flips the sign of lane 0 only: [a, b] -> [-a, b].
inline float64x2_t negate_lane0(float64x2_t v) {
  const uint64x2_t sign = {0x8000000000000000ull, 0ull};
  return vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(v), sign));
}

// Complex product of the packed complex value v by w.
inline float64x2_t mul_complex(float64x2_t v, float64x2_t w) {
  const float64x2_t t1 = vmulq_f64(v, vdupq_laneq_f64(w, 0));  // [re*wre im*wre]
  const float64x2_t vs = vextq_f64(v, v, 1);                   // [im re]
  const float64x2_t t2 = vmulq_f64(vs, vdupq_laneq_f64(w, 1)); // [im*wim re*wim]
  // [re*wre - im*wim, im*wre + re*wim]
  return vaddq_f64(t1, negate_lane0(t2));
}

void butterfly_stage_neon(cdouble* d, std::size_t n, std::size_t half,
                          const cdouble* tw) {
  double* const dd = reinterpret_cast<double*>(d);
  const double* const twd = reinterpret_cast<const double*>(tw);
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    double* const a = dd + 2 * i;
    double* const b = dd + 2 * (i + half);
    for (std::size_t k = 0; k < half; ++k) {
      const float64x2_t u = vld1q_f64(a + 2 * k);
      const float64x2_t v = vld1q_f64(b + 2 * k);
      const float64x2_t w = vld1q_f64(twd + 2 * k);
      const float64x2_t t = mul_complex(v, w);
      vst1q_f64(a + 2 * k, vaddq_f64(u, t));
      vst1q_f64(b + 2 * k, vsubq_f64(u, t));
    }
  }
}

void complex_mul_neon(cdouble* dst, const cdouble* a, const cdouble* b,
                      std::size_t n) {
  double* const dp = reinterpret_cast<double*>(dst);
  const double* const ap = reinterpret_cast<const double*>(a);
  const double* const bp = reinterpret_cast<const double*>(b);
  for (std::size_t k = 0; k < n; ++k)
    vst1q_f64(dp + 2 * k,
              mul_complex(vld1q_f64(ap + 2 * k), vld1q_f64(bp + 2 * k)));
}

void complex_scale_neon(cdouble* d, std::size_t n, double s) {
  double* const dp = reinterpret_cast<double*>(d);
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t k = 0; k < n; ++k)
    vst1q_f64(dp + 2 * k, vmulq_f64(vld1q_f64(dp + 2 * k), vs));
}

void phase_deltas_neon(const double* dphase, const double* scale, double* out,
                       std::size_t n) {
  using tagbreathe::common::kPi;
  using tagbreathe::common::kTwoPi;
  // Same range split as the AVX2 kernel: y = x + pi wraps exactly with
  // one conditional +/- 2pi for y in (-2pi, 4pi); out-of-range lanes
  // take the scalar fmod path.
  const float64x2_t vpi = vdupq_n_f64(kPi);
  const float64x2_t vtwo_pi = vdupq_n_f64(kTwoPi);
  const float64x2_t vneg_two_pi = vdupq_n_f64(-kTwoPi);
  const float64x2_t vfour_pi = vaddq_f64(vtwo_pi, vtwo_pi);  // exact: 2*2pi
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t x = vld1q_f64(dphase + k);
    const float64x2_t y = vaddq_f64(x, vpi);
    const uint64x2_t in_range =
        vandq_u64(vcgtq_f64(y, vneg_two_pi), vcltq_f64(y, vfour_pi));
    if (vgetq_lane_u64(in_range, 0) == 0 || vgetq_lane_u64(in_range, 1) == 0) {
      for (std::size_t j = k; j < k + 2; ++j)
        out[j] = scale[j] * common::wrap_phase_pi(dphase[j]);
      continue;
    }
    float64x2_t r = y;
    r = vbslq_f64(vcltq_f64(y, vzero), vaddq_f64(y, vtwo_pi), r);
    r = vbslq_f64(vcgeq_f64(y, vtwo_pi), vsubq_f64(y, vtwo_pi), r);
    const float64x2_t wrapped = vsubq_f64(r, vpi);
    vst1q_f64(out + k, vmulq_f64(vld1q_f64(scale + k), wrapped));
  }
  for (; k < n; ++k) out[k] = scale[k] * common::wrap_phase_pi(dphase[k]);
}

}  // namespace

const DspKernels& neon_kernels() noexcept {
  // The band-plan loops have no NEON form yet; they run the scalar
  // reference, which is bit-identical by definition.
  static const DspKernels k{
      &butterfly_stage_neon,
      &complex_mul_neon,
      &complex_scale_neon,
      &phase_deltas_neon,
      scalar_kernels().band_analysis,
      scalar_kernels().band_synthesis,
  };
  return k;
}

}  // namespace tagbreathe::signal::simd

#endif  // TAGBREATHE_HAVE_NEON_TU
