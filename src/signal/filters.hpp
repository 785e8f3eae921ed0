// Time-domain conditioning filters.
//
// Displacement tracks integrate phase deltas (Eq. 4), so they carry slow
// drift (integrated noise, posture shifts). The extractor removes it
// before spectral analysis.
#pragma once

#include <vector>

namespace tagbreathe::signal {

/// Removes the least-squares linear trend in place.
void detrend_linear(std::vector<double>& x);

}  // namespace tagbreathe::signal
