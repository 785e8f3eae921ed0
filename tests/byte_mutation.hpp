// One seeded byte-level mutation for the decoder fuzz loops (journal
// segments, telemetry frames): flip a bit, overwrite a byte, truncate,
// or insert 1..8 random bytes, all at one random position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace tagbreathe::testutil {

enum class MutationKind { Flip, Overwrite, Truncate, Insert };

struct Mutation {
  MutationKind kind = MutationKind::Flip;
  /// First byte the mutation touched; every byte before it is unchanged.
  std::size_t pos = 0;
};

/// Applies one mutation to non-empty `bytes` and reports where it landed.
inline Mutation mutate_once(common::Rng& rng,
                            std::vector<std::uint8_t>& bytes) {
  Mutation m;
  m.pos = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
  m.kind = static_cast<MutationKind>(rng.uniform_int(0, 3));
  switch (m.kind) {
    case MutationKind::Flip:
      bytes[m.pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      break;
    case MutationKind::Overwrite:
      bytes[m.pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      break;
    case MutationKind::Truncate:
      bytes.resize(m.pos);
      break;
    case MutationKind::Insert: {
      std::vector<std::uint8_t> extra(
          static_cast<std::size_t>(rng.uniform_int(1, 8)));
      for (auto& b : extra)
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(m.pos),
                   extra.begin(), extra.end());
      break;
    }
  }
  return m;
}

}  // namespace tagbreathe::testutil
