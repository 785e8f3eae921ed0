// FIR filter design and application.
//
// The paper notes "a finite impulse response (FIR) low pass filter can
// also be adopted to extract breathing signals" (Sec. IV-B). We implement
// windowed-sinc design and zero-phase (forward-backward) filtering so the
// FIR path is a drop-in alternative to the FFT low-pass filter, and
// ablation benches can compare the two.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signal/window.hpp"

namespace tagbreathe::signal {

/// Windowed-sinc low-pass design. `cutoff_hz` is the -6 dB edge;
/// `num_taps` must be odd (type-I linear phase) and >= 3.
std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t num_taps,
                                   WindowType window = WindowType::Hamming);

/// Band-pass as high-pass cascaded with low-pass (designed directly as
/// the difference of two low-pass kernels).
std::vector<double> design_bandpass(double low_hz, double high_hz,
                                    double sample_rate_hz,
                                    std::size_t num_taps,
                                    WindowType window = WindowType::Hamming);

/// Direct-form convolution, "same" length output: y[n] = sum_k h[k] x[n-k]
/// with zero padding at the edges and the kernel's group delay removed
/// (odd-length symmetric kernels only introduce integer delay).
std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> taps);

/// Zero-phase filtering: forward pass, reverse, forward pass, reverse.
/// Doubles the magnitude response in dB but cancels phase distortion —
/// important because breathing-rate estimation reads zero-crossing *times*.
std::vector<double> filtfilt(std::span<const double> x,
                             std::span<const double> taps);

/// Suggested tap count for a transition band width [Hz] using the Harris
/// approximation for a Hamming window; always returns an odd count >= 3.
std::size_t suggest_num_taps(double transition_hz, double sample_rate_hz);

}  // namespace tagbreathe::signal
