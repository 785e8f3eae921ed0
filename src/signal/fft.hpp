// Fast Fourier transform.
//
// The paper's breath-signal extraction is an FFT-based low-pass filter
// (Sec. IV-B): FFT -> zero bins above 0.67 Hz -> IFFT. This module
// provides an iterative radix-2 Cooley-Tukey transform for power-of-two
// sizes and Bluestein's chirp-z algorithm for arbitrary sizes (experiment
// windows are arbitrary lengths: 25 s at irregular read rates).
//
// Two API layers:
//  - One-shot helpers (fft/ifft/fft_real): allocate their
//    result, convenient for tests and offline analysis.
//  - Plan-based (FftPlan / RealFftPlan + FftScratch): the realtime
//    engine re-runs the same-size transform every update tick for every
//    user, so bit-reversal tables, per-stage twiddles and the Bluestein
//    chirp + kernel spectrum are precomputed once per (size, direction)
//    and cached process-wide; with caller-owned scratch the steady-state
//    transform performs no heap allocation. The one-shot helpers
//    delegate to the cached plans.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace tagbreathe::signal {

using cdouble = std::complex<double>;

/// Smallest power of two >= n. Contract: next_pow2(0) == next_pow2(1)
/// == 1 (an empty transform rounds up to the trivial size); throws
/// std::overflow_error when the result is not representable in size_t
/// (n > 2^63 on 64-bit) instead of looping forever or wrapping.
std::size_t next_pow2(std::size_t n);

/// True if n is a nonzero power of two.
bool is_pow2(std::size_t n) noexcept;

/// In-place radix-2 DIT FFT. Requires data.size() to be a power of two.
/// `inverse` applies the conjugate transform and the 1/N scale, so
/// fft_pow2(x); fft_pow2(x, true) is the identity. This is the legacy
/// planless kernel (twiddles recomputed per call). No hot path runs it;
/// it stays as the independent reference the planned transforms are
/// tested against.
void fft_pow2(std::vector<cdouble>& data, bool inverse = false);

enum class FftDirection : std::uint8_t { Forward = 0, Inverse = 1 };

/// Caller-owned scratch for plan execution. Buffers grow to the plan's
/// working-set size on first use and are reused afterwards, so repeated
/// transforms of one size allocate nothing. One scratch per thread; a
/// scratch may be shared across plans of different sizes (it keeps the
/// high-water capacity). Cache-line aligned so arrays of per-worker
/// scratches (AnalysisPool slots) never share a line across workers.
struct alignas(64) FftScratch {
  std::vector<cdouble> a;  // Bluestein convolution buffer (size m)
  std::vector<cdouble> b;  // staging: even-N real packing, both directions
  std::vector<double> band;  // BandPlan: folded input and sums, or split bins
};

/// Precomputed transform plan for one (size, direction).
///
/// Power-of-two sizes store the bit-reversal permutation and per-stage
/// twiddle tables; other sizes store the Bluestein chirp and the
/// kernel's FFT (computed once), plus the two inner power-of-two plans.
/// Plans are immutable after construction and safe to execute from any
/// number of threads concurrently (each execution only touches the
/// caller's scratch and output).
class FftPlan {
 public:
  /// Cached lookup: returns the process-wide shared plan, building it on
  /// first request. Thread-safe. The cache is capacity-bounded; beyond
  /// the bound, plans are built per call and not retained.
  static std::shared_ptr<const FftPlan> get(std::size_t n, FftDirection dir);

  std::size_t size() const noexcept { return n_; }
  FftDirection direction() const noexcept { return dir_; }
  bool uses_bluestein() const noexcept { return !chirp_.empty(); }

  /// Out-of-place transform of exactly size() samples. `out` may alias
  /// `in` (the pow2 path then works fully in place). Allocation-free
  /// once `scratch` has warmed up to this plan's working-set size.
  void execute(std::span<const cdouble> in, std::span<cdouble> out,
               FftScratch& scratch) const;

  /// In-place convenience overload.
  void execute(std::span<cdouble> data, FftScratch& scratch) const {
    execute(data, data, scratch);
  }

  /// Cache introspection (tests / metrics).
  static std::size_t cache_size();
  static void clear_cache();

 private:
  FftPlan(std::size_t n, FftDirection dir);
  void run_pow2(std::span<cdouble> data) const;

  std::size_t n_ = 0;
  FftDirection dir_ = FftDirection::Forward;
  // Power-of-two path.
  std::vector<std::uint32_t> rev_;   // bit-reversal permutation
  std::vector<cdouble> twiddles_;    // stage tables (len 2,4,..,n), flattened
  // Bluestein path (empty chirp_ => pow2 path).
  std::vector<cdouble> chirp_;       // exp(sign*i*pi*k^2/n), size n
  std::vector<cdouble> kernel_fft_;  // FFT of the chirp kernel, size m
  std::size_t m_ = 0;                // inner pow2 convolution size
  std::shared_ptr<const FftPlan> fwd_m_;  // forward plan of size m
  std::shared_ptr<const FftPlan> inv_m_;  // inverse plan of size m
};

/// Plan for the DFT of a real signal of any length N >= 1.
///
/// Even N uses the packing trick: the N reals are packed into N/2
/// complex samples, one N/2-point complex FFT runs, and the halves are
/// untangled with the precomputed packing twiddles, roughly halving the
/// cost of the full-complex transform. execute_inverse runs the same
/// steps backwards (c2r) with the conjugate twiddles and the N/2-point
/// inverse plan.
///
/// Odd N uses a pruned Bluestein. The forward convolution only has to
/// be exact on bins 0..(N-1)/2 (the rest are their conjugate mirror),
/// so the inner size is next_pow2(N + (N+1)/2 - 1): 1024 for N = 601,
/// where the full complex plan needs 2048. The inverse folds the
/// spectrum onto (N+1)/2 inputs and runs a convolution of the same size
/// over all N outputs. The plan holds a chirp and a kernel spectrum for
/// each direction's lag range.
class RealFftPlan {
 public:
  /// n must be >= 1. Cached and thread-safe like FftPlan::get.
  static std::shared_ptr<const RealFftPlan> get(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// out.size() must be n; all n (conjugate-symmetric) bins are
  /// written. Allocation-free once scratch is warm.
  void execute(std::span<const double> in, std::span<cdouble> out,
               FftScratch& scratch) const;

  /// Inverse (1/N-scaled) transform of a spectrum into the real signal
  /// `out` (size n). spectrum.size() must be n.
  ///  - Even n reads only bins 0..n/2: the upper half is taken to be
  ///    their conjugate mirror, and only the real parts of the DC and
  ///    Nyquist bins enter. The n/2 packed values x[2m] + i*x[2m+1]
  ///    stage in scratch.b.
  ///  - Odd n reads every bin and returns the real part of the full
  ///    complex inverse for any spectrum, Hermitian or not (the same
  ///    value at a different rounding): bin k and bin n-k fold into
  ///    Y[k] = X[k] + conj(X[n-k]), Y[0] = Re X[0].
  /// Allocation-free once scratch is warm.
  void execute_inverse(std::span<const cdouble> spectrum,
                       std::span<double> out, FftScratch& scratch) const;

  static std::size_t cache_size();
  static void clear_cache();

 private:
  explicit RealFftPlan(std::size_t n);
  void execute_odd(std::span<const double> in, std::span<cdouble> out,
                   FftScratch& scratch) const;
  void execute_inverse_odd(std::span<const cdouble> spectrum,
                           std::span<double> out, FftScratch& scratch) const;

  std::size_t n_ = 0;
  // Inner plans: N/2-point for even N, m-point for odd N.
  std::shared_ptr<const FftPlan> fwd_;
  std::shared_ptr<const FftPlan> inv_;
  // Even N: packing twiddles exp(-2*pi*i*k/N), k in [0, N/2].
  std::vector<cdouble> twiddles_;
  // Odd N (empty for even N).
  std::vector<cdouble> chirp_;       // exp(-i*pi*k^2/N), size N
  std::vector<cdouble> chirp_inv_;   // conj(chirp_)
  std::vector<cdouble> kernel_fwd_;  // FFT of the forward-lag kernel, size m
  std::vector<cdouble> kernel_inv_;  // FFT of the inverse-lag kernel, size m
  std::size_t m_ = 0;                // inner pow2 convolution size
};

/// Transforms of a real signal of length N whose spectrum is only needed
/// on bins 0..K (K < N/2): the breath filter keeps nothing above
/// 0.67 Hz, which is bin 20 of a 601-sample track at 20 Hz.
///
/// The plan holds one symmetric half table, cos and sin of 2*pi*k*m/N
/// for m = 1..floor(N/2) and k = 0..K: 16*(K+1)*floor(N/2) bytes, ~98 KB
/// for (601, 20). The forward transform is a direct DFT of bins 0..K
/// over the pairs x[m] +- x[N-m]; the synthesis builds all N samples,
/// or every stride-th, from a run of bins (samples t and N-t share a
/// row).
/// Both inner loops run through the dispatched kernel table, so every
/// SIMD level gives the same bytes. Cached and thread-safe like
/// RealFftPlan.
class BandPlan {
 public:
  /// Requires 2 <= n and 2*k_max < n.
  static std::shared_ptr<const BandPlan> get(std::size_t n, std::size_t k_max);

  /// True when the band transforms of (n, k_max) beat the full
  /// RealFftPlan round trip, decided from (n, k_max) alone: the band
  /// work grows as (K+1)*N and the full transform's as N*log2(N), so
  /// the band plan wins while K+1 <= kBandCrossover * log2(N).
  static bool preferred(std::size_t n, std::size_t k_max) noexcept;

  /// The constant of preferred(), set from the perf_dsp sweep of
  /// BM_BandRoundTrip against BM_FullRoundTrip with AVX2 kernels. Power-of-
  /// two N give the full transform its best case and set the bound: the
  /// band path won up to (K+1)/log2(N) ~ 4.6-6.4 for N = 256..2048 and
  /// ~3.4 at 4096, where the table outgrows L2. Other N win further out
  /// (N = 601 up to K = 160). The scalar kernels alone would stop near 2
  /// on power-of-two N; the choice must not depend on the SIMD level,
  /// which would break byte identity, so it follows the vector kernels.
  static constexpr double kBandCrossover = 4.0;

  std::size_t size() const noexcept { return n_; }
  std::size_t max_bin() const noexcept { return bins_ - 1; }
  std::size_t table_bytes() const noexcept {
    return table_.size() * sizeof(double);
  }

  /// Bins 0..K of the DFT of `in` (size n) into `out` (size K+1): the
  /// first K+1 bins RealFftPlan::execute writes, at a different
  /// rounding. Allocation-free once scratch is warm.
  void forward(std::span<const double> in, std::span<cdouble> out,
               FftScratch& scratch) const;

  /// out[i] = y[i*stride], i < ceil(N/stride) (out.size()), where
  /// y[t] = (1/N) * sum_j Re(coeffs[j] * exp(2*pi*i*(first_bin+j)*t/N))
  /// is the inverse of a Hermitian spectrum whose bins outside
  /// [first_bin, first_bin + coeffs.size()) and their mirrors are zero,
  /// with each kept bin k > 0 already weighted by the count of k and N-k
  /// that it stands for. The run must end at or below K. A stride > 1
  /// reads only the table rows its samples need (about 1/stride of
  /// them), and each sample it gives is the same double stride 1 gives
  /// at that index. Allocation-free once scratch is warm.
  void synthesize(std::span<const cdouble> coeffs, std::size_t first_bin,
                  std::size_t stride, std::span<double> out,
                  FftScratch& scratch) const;

 private:
  BandPlan(std::size_t n, std::size_t k_max);

  std::size_t n_ = 0;
  std::size_t bins_ = 0;       // K + 1
  std::vector<double> table_;  // floor(N/2) rows of [cos k=0..K | sin k=0..K]
};

/// Forward DFT of arbitrary length (radix-2 when possible, Bluestein
/// otherwise). Returns a new vector of the same length. Delegates to
/// the cached plan for the size.
std::vector<cdouble> fft(std::span<const cdouble> input);

/// Inverse DFT (1/N-scaled) of arbitrary length.
std::vector<cdouble> ifft(std::span<const cdouble> input);

/// Forward DFT of a real signal; returns all N complex bins (conjugate
/// symmetric). Runs the cached RealFftPlan: the half-size packing trick
/// for even N, the pruned Bluestein for odd N.
std::vector<cdouble> fft_real(std::span<const double> input);

/// Plan-based fft_real into a caller buffer (resized to input.size());
/// allocation-free once `scratch` and `out` are warm.
void fft_real_into(std::span<const double> input, std::vector<cdouble>& out,
                   FftScratch& scratch);

// ---------------------------------------------------------------------------
// Batched transform sweeps
//
// The realtime engine's update tick runs the SAME-size transform for
// every dirty user of a shard (the fusion grid fixes the track length
// per tick). The *_many entry points run a whole batch through one
// cached plan in a single sweep: the plan-cache mutex is taken once per
// size change instead of once per user, and the plan's twiddle/chirp
// tables stay hot in cache across the batch. Results are bit-identical
// to issuing the jobs one at a time — fft_real_into delegates here with
// a one-element batch, so there is exactly one code path.

/// One real forward transform: `out` is resized to in.size().
struct RealFftJob {
  std::span<const double> in;
  std::vector<cdouble>* out = nullptr;
};

/// One real inverse transform: `out` receives the real signal (resized
/// to spectrum.size()). For even N only bins 0..N/2 are read and the
/// N/2 packed values stage in FftScratch::b; odd N stages only in
/// FftScratch::a.
struct RealIfftJob {
  std::span<const cdouble> spectrum;
  std::vector<double>* out = nullptr;
};

/// Batched fft_real_into: forward-transforms every job's real signal.
void fft_real_many(std::span<const RealFftJob> jobs, FftScratch& scratch);

/// Batched inverse of the conjugate-symmetric spectra of real signals,
/// via RealFftPlan::execute_inverse. Even lengths run the half-size c2r
/// transform, which reads only bins 0..N/2. Odd lengths fold the
/// spectrum onto (N+1)/2 bins and run the pruned Bluestein; the result
/// is the real part of the full complex inverse for any spectrum.
void ifft_real_many(std::span<const RealIfftJob> jobs, FftScratch& scratch);

/// Frequency of bin k for an N-point transform at sample rate fs,
/// mapping bins above N/2 to their negative frequencies.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) noexcept;

}  // namespace tagbreathe::signal
