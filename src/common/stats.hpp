// Streaming and batch descriptive statistics.
//
// Experiment runners aggregate accuracy over repeated trials with these
// helpers; DSP code uses them for normalisation and quality metrics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tagbreathe::common {

/// Welford's online algorithm: numerically stable streaming mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept;

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs) noexcept;
double variance(std::span<const double> xs) noexcept;
double stddev(std::span<const double> xs) noexcept;
double min_value(std::span<const double> xs) noexcept;
double max_value(std::span<const double> xs) noexcept;

/// Median (copies, does a partial sort).
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> xs, double p);

/// Least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
};
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

/// Subtract the mean in place.
void remove_mean(std::vector<double>& xs) noexcept;

/// Scale to zero mean, unit peak magnitude (the paper plots "normalised
/// displacement"). A constant series maps to all zeros.
void normalize_peak(std::vector<double>& xs) noexcept;

}  // namespace tagbreathe::common
