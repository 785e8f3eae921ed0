#include "signal/fft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/flat_map.hpp"
#include "common/units.hpp"
#include "signal/simd/kernels.hpp"

namespace tagbreathe::signal {

using tagbreathe::common::kPi;
using tagbreathe::common::kTwoPi;

std::size_t next_pow2(std::size_t n) {
  if (n <= 1) return 1;  // next_pow2(0) == 1 by contract (trivial size)
  constexpr std::size_t kMaxPow2 =
      (std::numeric_limits<std::size_t>::max() >> 1) + 1;
  if (n > kMaxPow2)
    throw std::overflow_error("next_pow2: result not representable");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

void fft_pow2(std::vector<cdouble>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft_pow2: size not a power of two");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cdouble wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cdouble w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cdouble u = data[i + k];
        const cdouble v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  }
}

// ---------------------------------------------------------------------------
// FftPlan

namespace {

// Beyond this many distinct plans of one type a cache stops retaining
// new ones (they are built per call instead). The realtime
// engine cycles through a handful of window sizes; the bound only
// guards against pathological workloads with unbounded size diversity.
constexpr std::size_t kMaxCachedPlans = 128;

// One process-wide plan cache per plan type, keyed by a packed
// 64-bit key. Keys are small and dense, so the flat map serves the
// per-tick lookups with one hash and a short scan instead of a tree
// walk. All access stays under the mutex — test_capacity races
// lookups under TSan to pin that. Plans are built outside the lock:
// Bluestein construction recursively fetches the inner pow2 plans, and
// plan building is idempotent, so a racing duplicate build is wasted
// work at worst.
template <typename Plan>
class PlanCache {
 public:
  template <typename Build>
  std::shared_ptr<const Plan> get(std::uint64_t key, Build build) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto* hit = plans_.find(key)) return *hit;
    }
    std::shared_ptr<const Plan> plan(build());
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto* hit = plans_.find(key)) return *hit;  // racing build won
    if (plans_.size() < kMaxCachedPlans) plans_[key] = plan;
    return plan;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    plans_.clear();
  }

 private:
  std::mutex mutex_;
  common::FlatMap<std::uint64_t, std::shared_ptr<const Plan>> plans_;
};

PlanCache<FftPlan>& fft_plans() {
  static PlanCache<FftPlan> cache;
  return cache;
}

PlanCache<RealFftPlan>& real_plans() {
  static PlanCache<RealFftPlan> cache;
  return cache;
}

PlanCache<BandPlan>& band_plans() {
  static PlanCache<BandPlan> cache;
  return cache;
}

}  // namespace

FftPlan::FftPlan(std::size_t n, FftDirection dir) : n_(n), dir_(dir) {
  if (n == 0) throw std::invalid_argument("FftPlan: size must be positive");
  const double sign = dir == FftDirection::Inverse ? 1.0 : -1.0;

  if (is_pow2(n)) {
    // Bit-reversal permutation table.
    rev_.resize(n);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev_[i] = static_cast<std::uint32_t>(j);
    }
    // Per-stage twiddles, flattened: stage len has len/2 entries, so the
    // total across len = 2, 4, ..., n is n - 1. Direct cos/sin per entry
    // (no incremental rotation => no accumulated rounding).
    twiddles_.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double base = sign * kTwoPi / static_cast<double>(len);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double angle = base * static_cast<double>(k);
        twiddles_.emplace_back(std::cos(angle), std::sin(angle));
      }
    }
    return;
  }

  // Bluestein: chirp w_k = exp(sign * i * pi * k^2 / n), with k^2 mod 2n
  // to keep the angle argument small and precise for large k.
  chirp_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp_[k] = cdouble(std::cos(angle), std::sin(angle));
  }

  m_ = next_pow2(2 * n - 1);
  fwd_m_ = FftPlan::get(m_, FftDirection::Forward);
  inv_m_ = FftPlan::get(m_, FftDirection::Inverse);

  // Kernel spectrum, computed once per plan: b[k] = conj(chirp[k]) laid
  // out circularly, then FFT'd with the inner forward plan.
  kernel_fft_.assign(m_, cdouble(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    kernel_fft_[k] = std::conj(chirp_[k]);
    if (k != 0) kernel_fft_[m_ - k] = std::conj(chirp_[k]);
  }
  FftScratch scratch;
  fwd_m_->execute(kernel_fft_, scratch);
}

void FftPlan::run_pow2(std::span<cdouble> data) const {
  // The butterfly stages and the inverse scale run through the dispatched
  // kernel table (simd/kernels.hpp): AVX2/NEON where available, scalar
  // fallback otherwise, all bit-identical by contract.
  const simd::DspKernels& kn = simd::kernels();
  const std::size_t n = n_;
  cdouble* const d = data.data();
  const std::uint32_t* const rev = rev_.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(d[i], d[j]);
  }
  const cdouble* tw = twiddles_.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    kn.butterfly_stage(d, n, half, tw);
    tw += half;
  }
  if (dir_ == FftDirection::Inverse)
    kn.complex_scale(d, n, 1.0 / static_cast<double>(n));
}

void FftPlan::execute(std::span<const cdouble> in, std::span<cdouble> out,
                      FftScratch& scratch) const {
  if (in.size() != n_ || out.size() != n_)
    throw std::invalid_argument("FftPlan::execute: span size mismatch");
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }

  if (chirp_.empty()) {
    if (out.data() != in.data())
      std::copy(in.begin(), in.end(), out.begin());
    run_pow2(out);
    return;
  }

  // Bluestein via the precomputed kernel spectrum: only one forward and
  // one inverse inner transform per call (the legacy one-shot path paid
  // for a second forward FFT of the kernel every time). The pointwise
  // chirp/kernel products and the final scale run through the dispatched
  // kernel table.
  const simd::DspKernels& kn = simd::kernels();
  std::vector<cdouble>& a = scratch.a;
  a.assign(m_, cdouble(0.0, 0.0));
  cdouble* const ap = a.data();
  const cdouble* const ip = in.data();
  cdouble* const op = out.data();
  const cdouble* const chirp = chirp_.data();
  const cdouble* const kernel = kernel_fft_.data();
  kn.complex_mul(ap, ip, chirp, n_);
  fwd_m_->execute(a, scratch);  // pow2: scratch unused, in-place
  kn.complex_mul(ap, ap, kernel, m_);
  inv_m_->execute(a, scratch);  // includes the 1/m scale
  kn.complex_mul(op, ap, chirp, n_);
  if (dir_ == FftDirection::Inverse)
    kn.complex_scale(op, n_, 1.0 / static_cast<double>(n_));
}

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n, FftDirection dir) {
  // Direction in bit 0, size above it.
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                            (dir == FftDirection::Inverse ? 1u : 0u);
  return fft_plans().get(key, [&] { return new FftPlan(n, dir); });
}

std::size_t FftPlan::cache_size() { return fft_plans().size(); }

void FftPlan::clear_cache() { fft_plans().clear(); }

// ---------------------------------------------------------------------------
// RealFftPlan

RealFftPlan::RealFftPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("RealFftPlan: size must be positive");
  if (n % 2 == 0) {
    fwd_ = FftPlan::get(n / 2, FftDirection::Forward);
    inv_ = FftPlan::get(n / 2, FftDirection::Inverse);
    // Packing twiddles exp(-2*pi*i*k/N) for k in [0, N/2].
    twiddles_.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      twiddles_[k] = cdouble(std::cos(angle), std::sin(angle));
    }
    return;
  }

  // Odd N: pruned Bluestein. Chirp c_k = exp(-i*pi*k^2/N) (k^2 mod 2N,
  // as in FftPlan) and its conjugate, the inverse direction's chirp.
  chirp_.resize(n);
  chirp_inv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = -kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp_[k] = cdouble(std::cos(angle), std::sin(angle));
    chirp_inv_[k] = std::conj(chirp_[k]);
  }
  // Both convolutions pair N points with h = (N+1)/2 points, so their
  // lags span N + h - 1 values and a circular convolution of that size
  // has no wrap on the outputs that are kept.
  const std::size_t h = (n + 1) / 2;
  m_ = next_pow2(n + h - 1);
  fwd_ = FftPlan::get(m_, FftDirection::Forward);
  inv_ = FftPlan::get(m_, FftDirection::Inverse);

  // Forward kernel conj(c_j) on lags [-(N-1), h-1], laid out circularly.
  // The inverse kernel c_j on lags [-(h-1), N-1] is the forward one
  // conjugated and time-reversed, so its spectrum is the conjugate.
  kernel_fwd_.assign(m_, cdouble(0.0, 0.0));
  for (std::size_t k = 0; k < h; ++k) kernel_fwd_[k] = chirp_inv_[k];
  for (std::size_t k = 1; k < n; ++k) kernel_fwd_[m_ - k] = chirp_inv_[k];
  FftScratch scratch;
  fwd_->execute(kernel_fwd_, scratch);
  kernel_inv_.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) kernel_inv_[k] = std::conj(kernel_fwd_[k]);
}

void RealFftPlan::execute(std::span<const double> in, std::span<cdouble> out,
                          FftScratch& scratch) const {
  if (in.size() != n_ || out.size() != n_)
    throw std::invalid_argument("RealFftPlan::execute: span size mismatch");
  if (n_ % 2 != 0) {
    execute_odd(in, out, scratch);
    return;
  }
  const std::size_t h = n_ / 2;

  // Pack adjacent reals into complex samples: z[k] = x[2k] + i*x[2k+1].
  // Raw pointers in the element loops — see FftPlan::run_pow2.
  std::vector<cdouble>& zv = scratch.b;
  zv.resize(h);
  cdouble* const z = zv.data();
  const double* const x = in.data();
  for (std::size_t k = 0; k < h; ++k)
    z[k] = cdouble(x[2 * k], x[2 * k + 1]);
  fwd_->execute(zv, scratch);

  // Untangle the even/odd spectra and recombine:
  //   Fe[k] = (Z[k] + conj(Z[h-k])) / 2        (spectrum of x_even)
  //   Fo[k] = (Z[k] - conj(Z[h-k])) / (2i)     (spectrum of x_odd)
  //   X[k]  = Fe[k] + W^k * Fo[k],  W = exp(-2*pi*i/N)
  // for k in [0, h] with Z[h] == Z[0], then conjugate symmetry fills
  // the upper half.
  cdouble* const o = out.data();
  const cdouble* const tw = twiddles_.data();
  for (std::size_t k = 0; k <= h; ++k) {
    const cdouble zk = k == h ? z[0] : z[k];
    const cdouble zc = std::conj(k == 0 ? z[0] : z[h - k]);
    const cdouble fe = 0.5 * (zk + zc);
    const cdouble fo = cdouble(0.0, -0.5) * (zk - zc);
    const cdouble xk = fe + tw[k] * fo;
    if (k == h) {
      o[h] = xk;
    } else if (k == 0) {
      o[0] = xk;
    } else {
      o[k] = xk;
      o[n_ - k] = std::conj(xk);
    }
  }
}

void RealFftPlan::execute_inverse(std::span<const cdouble> spectrum,
                                  std::span<double> out,
                                  FftScratch& scratch) const {
  if (spectrum.size() != n_ || out.size() != n_)
    throw std::invalid_argument(
        "RealFftPlan::execute_inverse: span size mismatch");
  if (n_ % 2 != 0) {
    execute_inverse_odd(spectrum, out, scratch);
    return;
  }
  const std::size_t h = n_ / 2;

  // Re-tangle the half spectrum into the spectrum of the packed signal
  // z[m] = x[2m] + i*x[2m+1] (the forward untangle, solved backwards):
  //   Fe[k] = (X[k] + conj(X[h-k])) / 2
  //   Fo[k] = (X[k] - conj(X[h-k])) / 2 * conj(W^k)
  //   Z[k]  = Fe[k] + i*Fo[k]
  // for k in [0, h). Only the real parts of the DC and Nyquist bins
  // enter (the Hermitian part of the spectrum), so bins 0..h suffice.
  std::vector<cdouble>& zv = scratch.b;
  zv.resize(h);
  cdouble* const z = zv.data();
  const cdouble* const x = spectrum.data();
  const cdouble* const tw = twiddles_.data();
  for (std::size_t k = 0; k < h; ++k) {
    const cdouble xk = k == 0 ? cdouble(x[0].real(), 0.0) : x[k];
    const cdouble xc = k == 0 ? cdouble(x[h].real(), 0.0) : std::conj(x[h - k]);
    const cdouble fe = 0.5 * (xk + xc);
    const cdouble fo = 0.5 * (xk - xc) * std::conj(tw[k]);
    z[k] = fe + cdouble(-fo.imag(), fo.real());
  }
  inv_->execute(zv, scratch);  // includes the 1/h scale

  double* const o = out.data();
  for (std::size_t k = 0; k < h; ++k) {
    o[2 * k] = z[k].real();
    o[2 * k + 1] = z[k].imag();
  }
}

void RealFftPlan::execute_odd(std::span<const double> in,
                              std::span<cdouble> out,
                              FftScratch& scratch) const {
  // X[k] = c_k * sum_j (x[j] c_j) conj(c_(k-j)), needed only for
  // k < h = (N+1)/2; conjugate symmetry fills the rest. The pointwise
  // products run through the dispatched kernel table.
  const simd::DspKernels& kn = simd::kernels();
  const std::size_t h = (n_ + 1) / 2;
  std::vector<cdouble>& av = scratch.a;
  av.assign(m_, cdouble(0.0, 0.0));
  cdouble* const a = av.data();
  const double* const x = in.data();
  for (std::size_t k = 0; k < n_; ++k) a[k] = cdouble(x[k], 0.0);
  kn.complex_mul(a, a, chirp_.data(), n_);
  fwd_->execute(av, scratch);  // pow2: scratch unused, in-place
  kn.complex_mul(a, a, kernel_fwd_.data(), m_);
  inv_->execute(av, scratch);  // includes the 1/m scale
  cdouble* const o = out.data();
  kn.complex_mul(o, a, chirp_.data(), h);
  for (std::size_t k = 1; k < h; ++k) o[n_ - k] = std::conj(o[k]);
}

void RealFftPlan::execute_inverse_odd(std::span<const cdouble> spectrum,
                                      std::span<double> out,
                                      FftScratch& scratch) const {
  // Re(sum_k X[k] e^(2*pi*i*k*t/N)) pairs bin k with bin N-k, so it
  // equals Re(sum_{k<h} Y[k] e^(2*pi*i*k*t/N)) with the folded spectrum
  // Y[0] = Re X[0], Y[k] = X[k] + conj(X[N-k]). This holds for any
  // spectrum, Hermitian or not. Bluestein then maps h inputs to N
  // outputs with the inverse chirp.
  const simd::DspKernels& kn = simd::kernels();
  const std::size_t h = (n_ + 1) / 2;
  std::vector<cdouble>& av = scratch.a;
  av.assign(m_, cdouble(0.0, 0.0));
  cdouble* const a = av.data();
  const cdouble* const x = spectrum.data();
  a[0] = cdouble(x[0].real(), 0.0);
  for (std::size_t k = 1; k < h; ++k) a[k] = x[k] + std::conj(x[n_ - k]);
  kn.complex_mul(a, a, chirp_inv_.data(), h);
  fwd_->execute(av, scratch);
  kn.complex_mul(a, a, kernel_inv_.data(), m_);
  inv_->execute(av, scratch);
  kn.complex_mul(a, a, chirp_inv_.data(), n_);
  const double scale = 1.0 / static_cast<double>(n_);
  double* const o = out.data();
  for (std::size_t k = 0; k < n_; ++k) o[k] = a[k].real() * scale;
}

std::shared_ptr<const RealFftPlan> RealFftPlan::get(std::size_t n) {
  return real_plans().get(n, [&] { return new RealFftPlan(n); });
}

std::size_t RealFftPlan::cache_size() { return real_plans().size(); }

void RealFftPlan::clear_cache() { real_plans().clear(); }

// ---------------------------------------------------------------------------
// BandPlan

BandPlan::BandPlan(std::size_t n, std::size_t k_max) : n_(n), bins_(k_max + 1) {
  if (n < 2 || 2 * k_max >= n)
    throw std::invalid_argument("BandPlan: need 2 <= n and 2*k_max < n");
  // Row m - 1 holds cos then sin of 2*pi*k*m/N, k = 0..K; the angle
  // index k*m is reduced mod N first so the argument stays in [0, 2*pi).
  const std::size_t rows = n / 2;
  table_.resize(rows * 2 * bins_);
  for (std::size_t m = 1; m <= rows; ++m) {
    double* const row = table_.data() + (m - 1) * 2 * bins_;
    for (std::size_t k = 0; k < bins_; ++k) {
      const double angle = kTwoPi * static_cast<double>((k * m) % n) /
                           static_cast<double>(n);
      row[k] = std::cos(angle);
      row[bins_ + k] = std::sin(angle);
    }
  }
}

bool BandPlan::preferred(std::size_t n, std::size_t k_max) noexcept {
  if (n < 2 || 2 * k_max >= n) return false;
  return static_cast<double>(k_max + 1) <=
         kBandCrossover * std::log2(static_cast<double>(n));
}

void BandPlan::forward(std::span<const double> in, std::span<cdouble> out,
                       FftScratch& scratch) const {
  if (in.size() != n_ || out.size() != bins_)
    throw std::invalid_argument("BandPlan::forward: span size mismatch");
  // X[k] = x[0] + sum_m s[m] cos(2*pi*k*m/N) - i * sum_m d[m] sin(...)
  // with s[m] = x[m] + x[N-m] and d[m] = x[m] - x[N-m]; for even N the
  // middle sample x[N/2] pairs with itself (s = x[N/2], d = 0).
  const std::size_t rows = n_ / 2;
  std::vector<double>& staging = scratch.band;
  staging.resize(2 * rows + 2 * bins_);
  double* const s = staging.data();
  double* const d = s + rows;
  double* const re = d + rows;
  double* const im = re + bins_;
  const double* const x = in.data();
  for (std::size_t m = 1; m <= rows; ++m) {
    if (2 * m == n_) {
      s[m - 1] = x[m];
      d[m - 1] = 0.0;
    } else {
      s[m - 1] = x[m] + x[n_ - m];
      d[m - 1] = x[m] - x[n_ - m];
    }
  }
  for (std::size_t k = 0; k < bins_; ++k) {
    re[k] = x[0];
    im[k] = 0.0;
  }
  simd::kernels().band_analysis(s, d, rows, table_.data(), bins_, re, im);
  for (std::size_t k = 0; k < bins_; ++k) out[k] = cdouble(re[k], -im[k]);
}

void BandPlan::synthesize(std::span<const cdouble> coeffs,
                          std::size_t first_bin, std::size_t stride,
                          std::span<double> out, FftScratch& scratch) const {
  const std::size_t count = coeffs.size();
  if (stride == 0 || out.size() != (n_ + stride - 1) / stride ||
      first_bin + count > bins_)
    throw std::invalid_argument("BandPlan::synthesize: span size mismatch");
  // Sample t is (1/N) * sum_j (a_j cos - b_j sin)(2*pi*k_j*t/N) and
  // sample N-t flips the sign of the sine sum, so row t of the table
  // gives sample t as C - S and sample N-t as C + S; sample 0 is
  // sum_j a_j / N.
  const std::size_t half = n_ / 2;
  const std::size_t rows = half / stride;  // rows stride, 2*stride, ... <= N/2
  const std::size_t last = out.size() - 1;
  const std::size_t upper = n_ % stride == 0 ? rows : last - rows;
  std::vector<double>& staging = scratch.band;
  staging.resize(2 * count + 2 * std::max(rows, upper));
  double* const a = staging.data();
  double* const b = a + count;
  double* const plus = b + count;
  double* const minus = plus + std::max(rows, upper);
  double y0 = 0.0;
  for (std::size_t j = 0; j < count; ++j) {
    a[j] = coeffs[j].real();
    b[j] = coeffs[j].imag();
    y0 += a[j];
  }
  const double scale = 1.0 / static_cast<double>(n_);
  out[0] = y0 * scale;
  const simd::DspKernels& k = simd::kernels();
  const double* const table = table_.data() + first_bin;
  const std::size_t row = 2 * bins_;
  // Output i is sample i*stride. Rows stride, 2*stride, ... up to N/2
  // give outputs 1..rows through C - S.
  if (rows > 0)
    k.band_synthesis(a, b, count, table + (stride - 1) * row, bins_,
                     stride * row, rows, scale, plus, minus);
  if (n_ % stride == 0) {
    // Each of those rows also gives sample N - t, output last + 1 - i,
    // through C + S (written first: the same slot when 2t == N).
    for (std::size_t i = 1; i <= rows; ++i) {
      out[last + 1 - i] = plus[i - 1];
      out[i] = minus[i - 1];
    }
    return;
  }
  for (std::size_t i = 1; i <= rows; ++i) out[i] = minus[i - 1];
  // The later outputs read rows N - i*stride, from the lowest (output
  // `last`) upward in steps of stride, through C + S.
  if (upper > 0)
    k.band_synthesis(a, b, count, table + (n_ - last * stride - 1) * row,
                     bins_, stride * row, upper, scale, plus, minus);
  for (std::size_t j = 0; j < upper; ++j) out[last - j] = plus[j];
}

std::shared_ptr<const BandPlan> BandPlan::get(std::size_t n,
                                              std::size_t k_max) {
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 32) |
                            static_cast<std::uint64_t>(k_max);
  return band_plans().get(key, [&] { return new BandPlan(n, k_max); });
}

// ---------------------------------------------------------------------------
// One-shot helpers (delegate to the cached plans)

namespace {

std::vector<cdouble> transform(std::span<const cdouble> input,
                               FftDirection dir) {
  if (input.empty()) return {};
  const auto plan = FftPlan::get(input.size(), dir);
  std::vector<cdouble> out(input.size());
  FftScratch scratch;
  plan->execute(input, out, scratch);
  return out;
}

}  // namespace

std::vector<cdouble> fft(std::span<const cdouble> input) {
  return transform(input, FftDirection::Forward);
}

std::vector<cdouble> ifft(std::span<const cdouble> input) {
  return transform(input, FftDirection::Inverse);
}

void fft_real_many(std::span<const RealFftJob> jobs, FftScratch& scratch) {
  // Plans are re-fetched only when the size changes between consecutive
  // jobs; the engine's batches are all one size, so the plan-cache mutex
  // is taken once per sweep.
  std::shared_ptr<const RealFftPlan> plan;
  for (const RealFftJob& job : jobs) {
    const std::size_t n = job.in.size();
    std::vector<cdouble>& out = *job.out;
    out.resize(n);
    if (n == 0) continue;
    if (plan == nullptr || plan->size() != n) plan = RealFftPlan::get(n);
    plan->execute(job.in, out, scratch);
  }
}

void ifft_real_many(std::span<const RealIfftJob> jobs, FftScratch& scratch) {
  std::shared_ptr<const RealFftPlan> plan;
  for (const RealIfftJob& job : jobs) {
    const std::size_t n = job.spectrum.size();
    std::vector<double>& out = *job.out;
    out.resize(n);
    if (n == 0) continue;
    if (plan == nullptr || plan->size() != n) plan = RealFftPlan::get(n);
    plan->execute_inverse(job.spectrum, out, scratch);
  }
}

void fft_real_into(std::span<const double> input, std::vector<cdouble>& out,
                   FftScratch& scratch) {
  const RealFftJob job{input, &out};
  fft_real_many({&job, 1}, scratch);
}

std::vector<cdouble> fft_real(std::span<const double> input) {
  std::vector<cdouble> out;
  FftScratch scratch;
  fft_real_into(input, out, scratch);
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) noexcept {
  if (n == 0) return 0.0;
  const double fk = static_cast<double>(k) * sample_rate_hz / static_cast<double>(n);
  if (k <= n / 2) return fk;
  return fk - sample_rate_hz;
}

}  // namespace tagbreathe::signal
