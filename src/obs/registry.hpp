// Process-wide metrics registry: the counter/gauge/histogram spine the
// runtime surfaces hang off (ISSUE 5; the serving-stack observability
// the ROADMAP's production north-star requires).
//
// Contract, enforced throughout:
//
// - Registration (gauge()/histogram()) is find-or-create under a mutex
//   and may allocate; it happens once, at wiring time.
// - Instrument *updates* (Gauge::set, Histogram::observe) are lock-free
//   relaxed atomics on stable storage and never allocate, so they are
//   safe on the pipeline hot path (the counting-operator-new gate in
//   test_analysis_engine asserts this) and from any thread (the TSan
//   `concurrency` suite hammers them).
// - snapshot() copies every instrument's current value under the
//   registration mutex into plain structs, sorted by (name, label), so
//   exports are deterministic for deterministic inputs.
// - Counters have one home: the component's own struct fields. The
//   component registers a CounterCollector that reports them at scrape
//   time, and snapshot() sums every collector reporting one series
//   (one per bound owner, e.g. each shard of a fleet).
//
// Names must match the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*;
// counter names are checked as collectors emit them.
// One optional label pair per instrument covers the fleet's needs
// (quarantine reason, analysis stage, reader/shard index) without
// dragging in a full label-set model. Instruments are keyed by the full
// (name, label_key, label_value) triple, so one family may carry series
// under different label keys (`fleet_reads_total{reader=...}` next to
// `fleet_reads_total{shard=...}`) and multi-label scrapes stay
// byte-stable: snapshot order is the triple's lexicographic order,
// independent of registration order or thread interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace tagbreathe::obs {

/// Point-in-time level (queue depth, tracked users).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket distribution with Prometheus `le` semantics: a value
/// lands in the first bucket whose upper bound is >= the value, or in
/// the implicit +Inf overflow bucket past the last bound. Bounds are
/// fixed at registration; observe() is a linear scan (bucket counts are
/// small) plus two relaxed atomics — allocation-free and thread-safe.
/// NaN observations are counted in the overflow bucket and excluded
/// from the sum so one poisoned sample cannot erase the distribution.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double value) noexcept;

  std::size_t buckets() const noexcept { return bounds_.size() + 1; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;  // ascending, finite, unique
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default upper bounds for latency-shaped histograms [seconds].
std::span<const double> default_latency_bounds() noexcept;

// --- snapshot-on-read ------------------------------------------------------

struct CounterSample {
  std::string name;
  std::string label_key;    // empty = unlabelled
  std::string label_value;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string label_key;
  std::string label_value;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string label_key;
  std::string label_value;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Plain-struct copy of every registered instrument, sorted by
/// (name, label_key, label_value): deterministic input => byte-stable
/// exports.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Receives collectors' counter series during a scrape, summing the
/// values every collector emits for one (name, label_key, label_value).
/// Throws std::invalid_argument on a malformed name or label key, or a
/// label key without a value (or the reverse).
class CounterSink {
 public:
  void emit(std::string_view name, std::uint64_t value) {
    emit(name, {}, {}, value);
  }
  void emit(std::string_view name, std::string_view label_key,
            std::string_view label_value, std::uint64_t value);

 private:
  friend class MetricsRegistry;
  using Totals =
      std::map<std::tuple<std::string, std::string, std::string>, std::uint64_t>;
  explicit CounterSink(Totals& totals) : totals_(totals) {}
  Totals& totals_;
};

class MetricsRegistry;

/// A component's registration as the only count of its counters: the
/// callback reads the component's own fields and emits one series per
/// field. Contract:
///
/// - The callback runs during snapshot(), without the registry mutex
///   held. A component updated from several threads takes its own
///   mutex inside the callback; any other component must be scraped
///   from the thread that drives it.
/// - bind() to the hub the collector is already bound to replaces the
///   callback, so binding one component twice never double-counts.
/// - On retire() (and so on destruction) the callback runs one last
///   time and its values are folded into the registry's retained
///   totals, so a scrape taken after the owner is gone keeps them.
///   Declare the collector after every field its callback reads: it is
///   then destroyed, and retired, first.
/// - The registry holds the collector's address and the callback holds
///   its owner's, so neither is copyable or movable.
class CounterCollector {
 public:
  using Collect = std::function<void(CounterSink&)>;

  CounterCollector() = default;
  CounterCollector(const CounterCollector&) = delete;
  CounterCollector& operator=(const CounterCollector&) = delete;
  ~CounterCollector() { retire(); }

  void bind(MetricsRegistry& registry, Collect collect);
  void retire();

 private:
  friend class MetricsRegistry;
  MetricsRegistry* registry_ = nullptr;
};

class MetricsRegistry {
 public:
  // Out of line: Entry is incomplete here, so every special member that
  // could instantiate the entry map's node machinery must live in the
  // .cpp, after Entry's definition.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is stable for the life of
  /// the registry. Throws std::invalid_argument on a malformed name or
  /// when the name is already registered as a different kind (or, for
  /// histograms, with different bounds).
  Gauge& gauge(std::string_view name, std::string_view label_key = {},
               std::string_view label_value = {});
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       std::string_view label_key = {},
                       std::string_view label_value = {});

  /// Also runs every bound collector; each counter series is the sum
  /// of its collectors and its retired totals.
  MetricsSnapshot snapshot() const;
  std::size_t size() const;

 private:
  friend class CounterCollector;
  struct Entry;
  Entry& find_or_create(std::string_view name, std::string_view label_key,
                        std::string_view label_value, int kind);
  void attach(CounterCollector& collector, CounterCollector::Collect collect);
  void detach(CounterCollector& collector);

  // Serializes collector runs (scrapes and retires) and guards
  // retained_, so an owner's final values move into retained_ without
  // a scrape missing or double-counting them. Taken before mutex_,
  // never under it.
  mutable std::mutex collect_mutex_;
  CounterSink::Totals retained_;  // totals of retired collectors
  mutable std::mutex mutex_;
  // Keyed by the full (name, label_key, label_value) triple: map
  // iteration gives the sorted snapshot order for free, two label keys
  // under one family never collide, and unique_ptr keeps instrument
  // addresses stable across map growth.
  using Key = std::tuple<std::string, std::string, std::string>;
  std::map<Key, std::unique_ptr<Entry>> entries_;
  std::map<CounterCollector*, CounterCollector::Collect> collectors_;
};

}  // namespace tagbreathe::obs
