// FNV-1a 64 over text lines: the fold behind the fleet soak's
// event-log hash and the tests' pinned event-log and scrape hashes.
#pragma once

#include <cstdint>
#include <string_view>

namespace tagbreathe::common {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds `line` plus a terminating '\n' into `hash` (start from
/// kFnvOffset), so a sequence of lines hashes like the text file they
/// would form.
constexpr std::uint64_t fnv1a_line(std::uint64_t hash,
                                   std::string_view line) noexcept {
  for (const char c : line) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnvPrime;
  }
  hash ^= static_cast<std::uint8_t>('\n');
  hash *= kFnvPrime;
  return hash;
}

}  // namespace tagbreathe::common
