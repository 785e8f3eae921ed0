#include "signal/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "signal/simd/kernels.hpp"

namespace tagbreathe::signal::simd {

namespace {

/// Resolved dispatch state, published with release semantics so readers
/// see a fully-initialized entry after the acquire load. Null until the
/// first kernels()/active_level() call (or after a testing reset).
struct Dispatch {
  const DspKernels* table;
  SimdLevel level;
};

std::atomic<const Dispatch*> g_dispatch{nullptr};

// Slots for the probe result and the testing override. Static storage:
// dispatch state is process-lifetime, never freed.
Dispatch g_probed;
Dispatch g_override;

// Each probe exists only where CMake builds its kernel TU (AVX2 on
// x86-64, NEON on AArch64), as do its callers.
#if defined(TAGBREATHE_HAVE_AVX2_TU)
bool hardware_supports_avx2() noexcept {
  return __builtin_cpu_supports("avx2");
}
#endif

#if defined(TAGBREATHE_HAVE_NEON_TU)
bool hardware_supports_neon() noexcept {
  return true;  // AdvSIMD is architecturally mandatory on AArch64
}
#endif

Dispatch probe() noexcept {
  if (!env_requests_scalar(std::getenv("TAGBREATHE_FORCE_SCALAR"))) {
#if defined(TAGBREATHE_HAVE_AVX2_TU)
    if (hardware_supports_avx2()) return {&avx2_kernels(), SimdLevel::Avx2};
#endif
#if defined(TAGBREATHE_HAVE_NEON_TU)
    if (hardware_supports_neon()) return {&neon_kernels(), SimdLevel::Neon};
#endif
  }
  return {&scalar_kernels(), SimdLevel::Scalar};
}

const Dispatch& resolved() noexcept {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d != nullptr) return *d;
  // First call (possibly racing): the probe is idempotent and both
  // racers write identical values into g_probed before publishing, so
  // whichever CAS wins, readers observe a consistent entry.
  const Dispatch fresh = probe();
  const Dispatch* expected = nullptr;
  g_probed = fresh;
  if (g_dispatch.compare_exchange_strong(expected, &g_probed,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
    return g_probed;
  }
  return *expected;
}

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Neon: return "neon";
    default: return "unknown";
  }
}

bool env_requests_scalar(const char* value) noexcept {
  if (value == nullptr || value[0] == '\0') return false;
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "false") != 0 &&
         std::strcmp(value, "off") != 0;
}

SimdLevel detected_level() noexcept {
  // Probe without consulting (or installing) the override/dispatch
  // state: detected_level() must report the environment truth even
  // while a test override pins the table elsewhere.
  static const SimdLevel level = probe().level;
  return level;
}

SimdLevel active_level() noexcept { return resolved().level; }

int active_level_value() noexcept {
  return static_cast<int>(active_level());
}

const DspKernels& kernels() noexcept { return *resolved().table; }

SimdLevel override_level_for_testing(SimdLevel level) noexcept {
  Dispatch next{&scalar_kernels(), SimdLevel::Scalar};
  switch (level) {
    case SimdLevel::Avx2:
#if defined(TAGBREATHE_HAVE_AVX2_TU)
      if (hardware_supports_avx2()) next = {&avx2_kernels(), SimdLevel::Avx2};
#endif
      break;
    case SimdLevel::Neon:
#if defined(TAGBREATHE_HAVE_NEON_TU)
      if (hardware_supports_neon()) next = {&neon_kernels(), SimdLevel::Neon};
#endif
      break;
    case SimdLevel::Scalar:
    default:
      break;
  }
  g_override = next;
  g_dispatch.store(&g_override, std::memory_order_release);
  return next.level;
}

void reset_dispatch_for_testing() noexcept {
  g_dispatch.store(nullptr, std::memory_order_release);
}

}  // namespace tagbreathe::signal::simd
