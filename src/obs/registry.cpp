#include "obs/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace tagbreathe::obs {

namespace {

bool name_char_ok(char c, bool first) noexcept {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':')
    return true;
  return !first && c >= '0' && c <= '9';
}

void check_name(std::string_view name) {
  if (name.empty())
    throw std::invalid_argument("obs: metric name must not be empty");
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!name_char_ok(name[i], i == 0))
      throw std::invalid_argument("obs: metric name '" + std::string(name) +
                                  "' violates [a-zA-Z_:][a-zA-Z0-9_:]*");
  }
}

void check_series(std::string_view name, std::string_view label_key,
                  std::string_view label_value) {
  check_name(name);
  if (label_key.empty() != label_value.empty())
    throw std::invalid_argument(
        "obs: label key and value must be set together");
  if (!label_key.empty()) check_name(label_key);
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  if (bounds_.empty())
    throw std::invalid_argument("obs: histogram needs at least one bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]))
      throw std::invalid_argument("obs: histogram bounds must be finite");
    if (i > 0 && !(bounds_[i] > bounds_[i - 1]))
      throw std::invalid_argument(
          "obs: histogram bounds must be strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(buckets());
  for (std::size_t i = 0; i < buckets(); ++i) counts_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  std::size_t bucket = bounds_.size();  // +Inf overflow (also takes NaN)
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (!std::isnan(value)) sum_.fetch_add(value, std::memory_order_relaxed);
}

std::span<const double> default_latency_bounds() noexcept {
  static constexpr std::array<double, 12> kBounds = {
      1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0};
  return kBounds;
}

// --- MetricsRegistry -------------------------------------------------------

struct MetricsRegistry::Entry {
  enum Kind { kGauge = 0, kHistogram = 1 };
  std::string name;
  std::string label_key;
  std::string label_value;
  int kind = kGauge;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() {
  // Collectors that outlive the hub must not fold into a dead registry.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [collector, collect] : collectors_) collector->registry_ = nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view label_key,
    std::string_view label_value, int kind) {
  check_series(name, label_key, label_value);
  auto key = std::make_tuple(std::string(name), std::string(label_key),
                             std::string(label_value));
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = *it->second;
    if (entry.kind != kind)
      throw std::invalid_argument("obs: metric '" + std::string(name) +
                                  "' already registered as a different kind");
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->label_key = std::string(label_key);
  entry->label_value = std::string(label_value);
  entry->kind = kind;
  Entry& ref = *entry;
  entries_.emplace(std::move(key), std::move(entry));
  return ref;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(name, label_key, label_value, Entry::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds,
                                      std::string_view label_key,
                                      std::string_view label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry =
      find_or_create(name, label_key, label_value, Entry::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(bounds);
  } else if (!std::equal(bounds.begin(), bounds.end(),
                         entry.histogram->bounds().begin(),
                         entry.histogram->bounds().end())) {
    throw std::invalid_argument("obs: histogram '" + std::string(name) +
                                "' re-registered with different bounds");
  }
  return *entry.histogram;
}

// --- counter collectors ----------------------------------------------------

void CounterSink::emit(std::string_view name, std::string_view label_key,
                       std::string_view label_value, std::uint64_t value) {
  check_series(name, label_key, label_value);
  totals_[{std::string(name), std::string(label_key),
           std::string(label_value)}] += value;
}

void CounterCollector::bind(MetricsRegistry& registry, Collect collect) {
  if (registry_ != &registry) retire();
  registry.attach(*this, std::move(collect));
  registry_ = &registry;
}

void CounterCollector::retire() {
  if (registry_ == nullptr) return;
  registry_->detach(*this);
  registry_ = nullptr;
}

void MetricsRegistry::attach(CounterCollector& collector,
                             CounterCollector::Collect collect) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_[&collector] = std::move(collect);
}

void MetricsRegistry::detach(CounterCollector& collector) {
  std::lock_guard<std::mutex> collecting(collect_mutex_);
  CounterCollector::Collect collect;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = collectors_.find(&collector);
    if (it == collectors_.end()) return;
    collect = std::move(it->second);
    collectors_.erase(it);
  }
  CounterSink sink(retained_);
  collect(sink);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> collecting(collect_mutex_);
  MetricsSnapshot snap;
  CounterSink::Totals counters = retained_;
  std::vector<CounterCollector::Collect> collects;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    collects.reserve(collectors_.size());
    for (const auto& [collector, collect] : collectors_)
      collects.push_back(collect);
    for (const auto& [key, entry] : entries_) {
      switch (entry->kind) {
        case Entry::kGauge:
          snap.gauges.push_back(GaugeSample{entry->name, entry->label_key,
                                            entry->label_value,
                                            entry->gauge.value()});
          break;
        case Entry::kHistogram: {
          const Histogram& h = *entry->histogram;
          HistogramSample sample;
          sample.name = entry->name;
          sample.label_key = entry->label_key;
          sample.label_value = entry->label_value;
          sample.bounds = h.bounds();
          sample.counts.reserve(h.buckets());
          for (std::size_t i = 0; i < h.buckets(); ++i)
            sample.counts.push_back(h.bucket_count(i));
          sample.count = h.count();
          sample.sum = h.sum();
          snap.histograms.push_back(std::move(sample));
          break;
        }
      }
    }
  }
  // Collectors take their owners' locks: run them with mutex_ released.
  CounterSink sink(counters);
  for (const CounterCollector::Collect& collect : collects) collect(sink);
  snap.counters.reserve(counters.size());
  for (const auto& [key, value] : counters) {
    snap.counters.push_back(CounterSample{std::get<0>(key), std::get<1>(key),
                                          std::get<2>(key), value});
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace tagbreathe::obs
