#include "signal/filters.hpp"

#include <cstddef>

namespace tagbreathe::signal {

void detrend_linear(std::vector<double>& x) {
  if (x.size() < 2) return;
  // Allocation-free least-squares fit against the implicit sample index
  // t = 0..n-1 (this runs per track inside the batched extraction
  // sweep). The loops replicate common::linear_fit's summation order
  // exactly, so the result is bit-identical to fitting a materialized
  // index vector.
  double st = 0.0, sx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) st += static_cast<double>(i);
  for (const double v : x) sx += v;
  const double mt = st / static_cast<double>(x.size());
  const double mx = sx / static_cast<double>(x.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dt = static_cast<double>(i) - mt;
    num += dt * (x[i] - mx);
    den += dt * dt;
  }
  const double slope = den > 0.0 ? num / den : 0.0;
  const double intercept = mx - slope * mt;
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] -= slope * static_cast<double>(i) + intercept;
}

}  // namespace tagbreathe::signal
