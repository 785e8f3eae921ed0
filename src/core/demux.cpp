#include "core/demux.hpp"

#include <algorithm>

#include "obs/observability.hpp"

namespace tagbreathe::core {

StreamDemux::StreamDemux(std::vector<std::uint64_t> monitored_users)
    : monitored_users_(std::move(monitored_users)) {
  std::sort(monitored_users_.begin(), monitored_users_.end());
}

bool StreamDemux::is_monitored(std::uint64_t user_id) const noexcept {
  if (monitored_users_.empty()) return true;
  return std::binary_search(monitored_users_.begin(), monitored_users_.end(),
                            user_id);
}

std::vector<TagRead>& StreamDemux::stream_for(std::uint64_t user,
                                              std::uint32_t tag,
                                              std::uint8_t antenna) {
  UserEntry* entry = users_.find(user);
  if (entry == nullptr) {
    entry = &users_[user];
    user_order_dirty_ = true;
  }
  // Keep the per-user handle list sorted by (tag, antenna): the list is
  // a handful of entries (tags-per-user x antennas), so a linear
  // insertion keeps global StreamKey order with no comparator gymnastics.
  const StreamKey key{user, tag, antenna};
  std::size_t at = entry->streams.size();
  for (std::size_t i = 0; i < entry->streams.size(); ++i) {
    const StreamSlot* existing = slot(entry->streams[i]);
    if (existing->key == key) return arena_.at(entry->streams[i]).reads;
    if (key < existing->key) {
      at = i;
      break;
    }
  }
  const common::SlabHandle handle = arena_.emplace();
  arena_.at(handle).key = key;
  entry->streams.insert(
      entry->streams.begin() + static_cast<std::ptrdiff_t>(at), handle);
  return arena_.at(handle).reads;
}

void StreamDemux::add(const TagRead& read) {
  std::uint64_t user;
  std::uint32_t tag;
  if (registry_ != nullptr) {
    // Mapping-table mode: only registered EPCs are monitoring tags.
    const auto identity = registry_->lookup(read.epc);
    if (!identity) {
      ++ignored_;
      return;
    }
    user = identity->user_id;
    tag = identity->tag_id;
  } else {
    user = read.epc.user_id();
    tag = read.epc.tag_id();
  }
  if (!is_monitored(user)) {
    ++ignored_;
    return;
  }
  std::vector<TagRead>& stream = stream_for(user, tag, read.antenna_id);
  if (max_reads_per_stream_ > 0 && stream.size() >= max_reads_per_stream_) {
    stream.erase(stream.begin());
    ++shed_;
  }
  const bool was_empty = stream.empty();
  stream.push_back(read);
  ++accepted_;
  UserEntry& entry = users_[user];
  ++entry.reads_seen;
  if (was_empty && entry.non_empty++ == 0) user_order_dirty_ = true;
  if (streams_gauge_ != nullptr)
    streams_gauge_->set(static_cast<double>(arena_.live()));
}

std::uint64_t StreamDemux::reads_seen(std::uint64_t user_id) const noexcept {
  const UserEntry* entry = users_.find(user_id);
  return entry == nullptr ? 0 : entry->reads_seen;
}

void StreamDemux::add(std::span<const TagRead> reads) {
  for (const TagRead& r : reads) add(r);
}

std::vector<const std::vector<TagRead>*> StreamDemux::streams_for_user(
    std::uint64_t user_id) const {
  std::vector<const std::vector<TagRead>*> out;
  const UserEntry* entry = users_.find(user_id);
  if (entry == nullptr) return out;
  for (const common::SlabHandle handle : entry->streams) {
    const StreamSlot* s = slot(handle);
    if (!s->reads.empty()) out.push_back(&s->reads);
  }
  return out;
}

std::vector<const std::vector<TagRead>*> StreamDemux::streams_for_user_antenna(
    std::uint64_t user_id, std::uint8_t antenna_id) const {
  std::vector<const std::vector<TagRead>*> out;
  const UserEntry* entry = users_.find(user_id);
  if (entry == nullptr) return out;
  for (const common::SlabHandle handle : entry->streams) {
    const StreamSlot* s = slot(handle);
    if (s->key.antenna_id == antenna_id && !s->reads.empty())
      out.push_back(&s->reads);
  }
  return out;
}

const std::vector<std::uint64_t>& StreamDemux::users() const {
  if (user_order_dirty_) {
    user_order_.clear();
    user_order_.reserve(users_.size());
    users_.for_each([this](const std::uint64_t& user, const UserEntry& entry) {
      if (entry.non_empty > 0) user_order_.push_back(user);
    });
    std::sort(user_order_.begin(), user_order_.end());
    user_order_dirty_ = false;
  }
  return user_order_;
}

void StreamDemux::recount_user(UserEntry& entry) {
  std::uint32_t non_empty = 0;
  for (const common::SlabHandle handle : entry.streams)
    if (!slot(handle)->reads.empty()) ++non_empty;
  if ((entry.non_empty == 0) != (non_empty == 0)) user_order_dirty_ = true;
  entry.non_empty = non_empty;
}

DemuxState StreamDemux::export_state() const {
  DemuxState state;
  state.streams.reserve(arena_.live());
  state.reads_seen.reserve(users_.size());
  // Ascending users, sorted per-user streams => global StreamKey order,
  // byte-identical to the std::map image this replaced.
  for (const std::uint64_t user : users()) {
    const UserEntry* entry = users_.find(user);
    for (const common::SlabHandle handle : entry->streams) {
      const StreamSlot* s = slot(handle);
      state.streams.push_back(DemuxState::Stream{s->key, s->reads});
    }
    state.reads_seen.push_back({user, entry->reads_seen});
  }
  state.accepted = accepted_;
  state.ignored = ignored_;
  state.shed = shed_;
  return state;
}

void StreamDemux::import_state(DemuxState state) {
  users_.clear();
  arena_.clear();
  user_order_dirty_ = true;
  for (auto& stream : state.streams)
    stream_for(stream.key.user_id, stream.key.tag_id, stream.key.antenna_id) =
        std::move(stream.reads);
  for (const auto& [user, seen] : state.reads_seen)
    users_[user].reads_seen = seen;
  users_.for_each(
      [this](const std::uint64_t&, UserEntry& entry) { recount_user(entry); });
  accepted_ = state.accepted;
  ignored_ = state.ignored;
  shed_ = state.shed;
  if (streams_gauge_ != nullptr)
    streams_gauge_->set(static_cast<double>(arena_.live()));
}

DemuxState StreamDemux::export_user(std::uint64_t user_id) const {
  DemuxState state;
  const UserEntry* entry = users_.find(user_id);
  if (entry == nullptr) return state;
  for (const common::SlabHandle handle : entry->streams) {
    const StreamSlot* s = slot(handle);
    if (!s->reads.empty())
      state.streams.push_back(DemuxState::Stream{s->key, s->reads});
  }
  state.reads_seen.push_back({user_id, entry->reads_seen});
  return state;
}

std::size_t StreamDemux::import_user(const DemuxState& state) {
  std::size_t imported = 0;
  for (const DemuxState::Stream& s : state.streams) {
    std::vector<TagRead>& stream =
        stream_for(s.key.user_id, s.key.tag_id, s.key.antenna_id);
    stream.insert(stream.end(), s.reads.begin(), s.reads.end());
    std::stable_sort(stream.begin(), stream.end(),
                     [](const TagRead& a, const TagRead& b) {
                       return a.time_s < b.time_s;
                     });
    if (max_reads_per_stream_ > 0 && stream.size() > max_reads_per_stream_) {
      const std::size_t excess = stream.size() - max_reads_per_stream_;
      stream.erase(stream.begin(),
                   stream.begin() + static_cast<std::ptrdiff_t>(excess));
      shed_ += excess;
    }
    imported += s.reads.size();
    UserEntry& entry = users_[s.key.user_id];
    entry.reads_seen += s.reads.size();
    recount_user(entry);
  }
  if (streams_gauge_ != nullptr)
    streams_gauge_->set(static_cast<double>(arena_.live()));
  return imported;
}

void StreamDemux::clear() noexcept {
  users_.clear();
  arena_.clear();
  user_order_.clear();
  user_order_dirty_ = false;
  accepted_ = 0;
  ignored_ = 0;
  shed_ = 0;
  if (streams_gauge_ != nullptr) streams_gauge_->set(0.0);
}

std::size_t StreamDemux::drop_user(std::uint64_t user_id) {
  UserEntry* entry = users_.find(user_id);
  if (entry == nullptr) return 0;
  std::size_t released = 0;
  for (const common::SlabHandle handle : entry->streams) {
    released += arena_.at(handle).reads.size();
    arena_.release(handle);
  }
  users_.erase(user_id);
  user_order_dirty_ = true;
  return released;
}

void StreamDemux::evict_before(double cutoff_s) {
  // Unordered sweep: each stream is trimmed independently, so visit
  // order cannot reach an output byte. Empty streams keep their slot
  // (and their buffer capacity) — the user is still tracked and the
  // next read lands without an allocation.
  users_.for_each([this, cutoff_s](const std::uint64_t&, UserEntry& entry) {
    bool trimmed = false;
    for (const common::SlabHandle handle : entry.streams) {
      std::vector<TagRead>& stream = arena_.at(handle).reads;
      const auto first_kept = std::find_if(
          stream.begin(), stream.end(),
          [cutoff_s](const TagRead& r) { return r.time_s >= cutoff_s; });
      if (first_kept != stream.begin()) trimmed = true;
      stream.erase(stream.begin(), first_kept);
    }
    if (trimmed) recount_user(entry);
  });
}

std::size_t StreamDemux::footprint_bytes() const noexcept {
  std::size_t bytes = arena_.bytes_reserved() + users_.table_bytes() +
                      user_order_.capacity() * sizeof(std::uint64_t);
  users_.for_each([&bytes, this](const std::uint64_t&, const UserEntry& entry) {
    bytes += entry.streams.capacity() * sizeof(common::SlabHandle);
    for (const common::SlabHandle handle : entry.streams)
      bytes += slot(handle)->reads.capacity() * sizeof(TagRead);
  });
  return bytes;
}

void StreamDemux::bind_observability(obs::Observability& hub) {
  obs::MetricsRegistry& m = hub.metrics();
  collector_.bind(m, [this](obs::CounterSink& sink) {
    sink.emit("demux_accepted_total", accepted_);
    sink.emit("demux_ignored_total", ignored_);
    sink.emit("demux_shed_total", shed_);
  });
  streams_gauge_ = &m.gauge("demux_streams");
  streams_gauge_->set(static_cast<double>(arena_.live()));
}

}  // namespace tagbreathe::core
