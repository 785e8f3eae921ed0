// Dispatched DSP kernel table (see simd/dispatch.hpp for the selection
// contract).
//
// Each entry is one inner loop of the FFT / phase-preprocess hot path,
// implemented per ISA in kernels_scalar.cpp / kernels_avx2.cpp /
// kernels_neon.cpp. The implementations are REQUIRED to be bit-identical
// to the scalar reference: same arithmetic operations applied in the
// same per-element order, no fused multiply-add, no reassociation. The
// vector forms win by doing 2 complex doubles (AVX2) or 1 complex / 2
// reals (NEON) per instruction, not by changing the math — which is what
// lets the realtime engine keep byte-identical event logs across
// scalar/vector and lets tests assert exact equality.
#pragma once

#include <complex>
#include <cstddef>

namespace tagbreathe::signal::simd {

using cdouble = std::complex<double>;

/// One inner loop each; pointers follow the FFT plan's layouts.
struct DspKernels {
  /// One radix-2 DIT butterfly stage over the whole array: for every
  /// block of `2*half` elements starting at i, and every k < half,
  ///   u = d[i+k]; v = d[i+k+half] * tw[k];
  ///   d[i+k] = u + v; d[i+k+half] = u - v;
  /// `n` is a power of two, `half` divides n.
  void (*butterfly_stage)(cdouble* d, std::size_t n, std::size_t half,
                          const cdouble* tw);

  /// dst[k] = a[k] * b[k] for k < n. dst may alias a (the Bluestein
  /// pointwise products run both in-place and out-of-place).
  void (*complex_mul)(cdouble* dst, const cdouble* a, const cdouble* b,
                      std::size_t n);

  /// d[k] *= s for k < n (inverse-transform 1/N scaling).
  void (*complex_scale)(cdouble* d, std::size_t n, double s);

  /// out[k] = scale[k] * wrap_pi(dphase[k]) for k < n, where wrap_pi is
  /// common::wrap_phase_pi (principal value in (-pi, pi]). Inputs are
  /// same-channel phase differences, so |dphase| < 2*pi on the hot path;
  /// lanes outside that range take the exact scalar wrap.
  void (*phase_deltas)(const double* dphase, const double* scale,
                       double* out, std::size_t n);

  /// Band-plan analysis (signal::BandPlan::forward). `table` holds `rows`
  /// rows of 2*bins values, the bins' cosines then their sines. For
  /// every bin k < bins, over the rows r in order:
  ///   re[k] = re[k] + s[r] * table[r][k];
  ///   im[k] = im[k] + d[r] * table[r][bins + k];
  /// Each bin sums its rows in row order, whatever lanes a back end
  /// spreads the bins across.
  void (*band_analysis)(const double* s, const double* d, std::size_t rows,
                        const double* table, std::size_t bins, double* re,
                        double* im);

  /// Band-plan synthesis (signal::BandPlan::synthesize). Row r =
  /// 0..rows-1 starts at table + r*row_step; per row
  ///   C = sum_j a[j] * row[j],  S = sum_j b[j] * row[bins + j],  j < count,
  /// each summed in one fixed lane order: lane l (of 4) takes the terms
  /// j = 4i + l of the whole blocks of four in order, starting from 0.0;
  /// the lanes fold as (l0 + l1) + (l2 + l3); the count % 4 tail terms
  /// then add in order. Then plus[r] = (C + S) * scale and
  /// minus[r] = (C - S) * scale.
  void (*band_synthesis)(const double* a, const double* b, std::size_t count,
                         const double* table, std::size_t bins,
                         std::size_t row_step, std::size_t rows, double scale,
                         double* plus, double* minus);
};

/// The live kernel table. First call resolves the dispatch (thread-safe,
/// lock-free after init); subsequent calls are an atomic load.
const DspKernels& kernels() noexcept;

/// Per-ISA tables (exposed for the equivalence tests and benchmarks).
const DspKernels& scalar_kernels() noexcept;
#if defined(TAGBREATHE_HAVE_AVX2_TU)
const DspKernels& avx2_kernels() noexcept;
#endif
#if defined(TAGBREATHE_HAVE_NEON_TU)
const DspKernels& neon_kernels() noexcept;
#endif

}  // namespace tagbreathe::signal::simd
