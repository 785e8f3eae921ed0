// EPC mapping table (Sec. IV-C).
//
// "Note that overwriting tag IDs is a standard RFID operation supported
// by commodity RFID systems. If the overwriting operation is not
// supported, the reader can build a mapping table to map and lookup
// 96-bit tag IDs to user IDs and short tag IDs." — this is that table.
// Deployments that must keep factory EPCs register each physical tag
// once; the demux then resolves identities through the registry instead
// of (or on top of) the Fig. 9 bit layout.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "rfid/epc.hpp"

namespace tagbreathe::core {

struct TagIdentity {
  std::uint64_t user_id = 0;
  std::uint32_t tag_id = 0;
};

class TagRegistry {
 public:
  /// Registers a physical tag's EPC as belonging to (user, tag).
  /// Re-registering an EPC overwrites the previous assignment (tags get
  /// re-deployed between users).
  void register_tag(const rfid::Epc96& epc, std::uint64_t user_id,
                    std::uint32_t tag_id);

  /// Identity for an EPC, or nullopt for unknown (item) tags.
  std::optional<TagIdentity> lookup(const rfid::Epc96& epc) const;

  std::size_t size() const noexcept { return table_.size(); }
  bool empty() const noexcept { return table_.empty(); }
  void clear() noexcept { table_.clear(); }

 private:
  std::unordered_map<rfid::Epc96, TagIdentity, rfid::Epc96Hash> table_;
};

}  // namespace tagbreathe::core
