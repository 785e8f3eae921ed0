// Scalar reference kernels. These loops are the extracted bodies of the
// original FftPlan::run_pow2 / FftPlan::execute / PhasePreprocessor hot
// loops and define the bitwise contract the vector back ends must match.
// The TU is built with -ffp-contract=off on every platform so the
// reference semantics (no fused multiply-add) are pinned even where the
// compiler would otherwise contract.
#include <cstddef>

#include "common/units.hpp"
#include "signal/simd/kernels.hpp"

namespace tagbreathe::signal::simd {

namespace {

void butterfly_stage_scalar(cdouble* d, std::size_t n, std::size_t half,
                            const cdouble* tw) {
  const std::size_t len = 2 * half;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const cdouble u = d[i + k];
      const cdouble v = d[i + k + half] * tw[k];
      d[i + k] = u + v;
      d[i + k + half] = u - v;
    }
  }
}

void complex_mul_scalar(cdouble* dst, const cdouble* a, const cdouble* b,
                        std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) dst[k] = a[k] * b[k];
}

void complex_scale_scalar(cdouble* d, std::size_t n, double s) {
  for (std::size_t k = 0; k < n; ++k) d[k] *= s;
}

void phase_deltas_scalar(const double* dphase, const double* scale,
                         double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k)
    out[k] = scale[k] * common::wrap_phase_pi(dphase[k]);
}

void band_analysis_scalar(const double* s, const double* d, std::size_t rows,
                          const double* table, std::size_t bins, double* re,
                          double* im) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* const c = table + r * 2 * bins;
    const double* const sn = c + bins;
    for (std::size_t k = 0; k < bins; ++k) {
      re[k] = re[k] + s[r] * c[k];
      im[k] = im[k] + d[r] * sn[k];
    }
  }
}

// The band_synthesis lane order: four lanes over the whole blocks, folded
// pairwise, then the tail in order.
double lane_dot(const double* a, const double* x, std::size_t count) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t whole = count - count % 4;
  for (std::size_t j = 0; j < whole; j += 4) {
    for (std::size_t l = 0; l < 4; ++l)
      lane[l] = lane[l] + a[j + l] * x[j + l];
  }
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (std::size_t j = whole; j < count; ++j) sum = sum + a[j] * x[j];
  return sum;
}

void band_synthesis_scalar(const double* a, const double* b,
                           std::size_t count, const double* table,
                           std::size_t bins, std::size_t row_step,
                           std::size_t rows, double scale, double* plus,
                           double* minus) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* const row = table + r * row_step;
    const double c = lane_dot(a, row, count);
    const double s = lane_dot(b, row + bins, count);
    plus[r] = (c + s) * scale;
    minus[r] = (c - s) * scale;
  }
}

}  // namespace

const DspKernels& scalar_kernels() noexcept {
  static constexpr DspKernels k{
      &butterfly_stage_scalar,
      &complex_mul_scalar,
      &complex_scale_scalar,
      &phase_deltas_scalar,
      &band_analysis_scalar,
      &band_synthesis_scalar,
  };
  return k;
}

}  // namespace tagbreathe::signal::simd
