#include "core/tag_registry.hpp"

namespace tagbreathe::core {

void TagRegistry::register_tag(const rfid::Epc96& epc, std::uint64_t user_id,
                               std::uint32_t tag_id) {
  table_[epc] = TagIdentity{user_id, tag_id};
}

std::optional<TagIdentity> TagRegistry::lookup(const rfid::Epc96& epc) const {
  const auto it = table_.find(epc);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

}  // namespace tagbreathe::core
