// MetricRegistry: interns (metric name, component) pairs to dense SeriesIds
// and component names to dense ComponentIds.
//
// Table I requires that "the meaning of all raw data should be provided";
// every metric registered here carries units and a free-text description, and
// the registry can dump a data dictionary (see describe_all()).
//
// Reads by id are lock-free: metrics, components and series records
// (metric, component, priority) live in append-only PublishedTables.
// Registration appends under mu_, writing each entry before it publishes
// the new count with a release store; a reader acquire-loads the count and
// reads any id below it without the lock. That publication order is what
// keeps readers safe while the obs exporter interns hpcmon.self.* series
// at runtime beside shard workers, serve and relay. Only the name lookups
// (find_*, and the interning maps behind register_* and series()) take mu_.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "core/priority.hpp"

namespace hpcmon::core {

/// Metadata describing one metric family (e.g. "power_w" exists once per
/// cabinet; each (metric, component) pair is a distinct series).
struct MetricInfo {
  std::string name;         // e.g. "hsn.link.stalls"
  std::string units;        // e.g. "stalls/s"
  std::string description;  // Table I: "the meaning of all raw data"
  bool is_counter = false;  // monotonically increasing raw counter?
  /// Shedding class under storm load (priority.hpp); like the rest of the
  /// metadata, the first registration wins and the class is then immutable.
  Priority priority = Priority::kStandard;
};

/// Metadata describing one component instance.
struct ComponentInfo {
  std::string name;  // e.g. "c0-0c1s3n2" (Cray cname style) or "ost.12"
  ComponentKind kind = ComponentKind::kNode;
  ComponentId parent = kNoComponent;  // physical containment
};

/// Append-only table with lock-free reads. Chunk k holds 2^(6 + k) entries
/// and is never moved or freed before the table, so the fixed top-level
/// array of chunk pointers covers every 32-bit id. push_back() callers must
/// serialize among themselves; readers need no lock. An entry and its chunk
/// pointer are written before the release store of the size that publishes
/// them, and at() acquire-loads that size before touching either.
template <typename T>
class PublishedTable {
 public:
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Entry `i`; throws std::out_of_range at or past size(), like .at().
  const T& at(std::uint32_t i) const {
    if (i >= size()) throw std::out_of_range("PublishedTable::at");
    const auto [chunk, offset] = locate(i);
    return chunks_[chunk][offset];
  }

  /// Append and publish one entry; returns its index.
  std::uint32_t push_back(T value) {
    const auto i =
        static_cast<std::uint32_t>(size_.load(std::memory_order_relaxed));
    const auto [chunk, offset] = locate(i);
    if (!chunks_[chunk]) {
      chunks_[chunk] = std::make_unique<T[]>(std::size_t{1}
                                             << (kFirstChunkBits + chunk));
    }
    chunks_[chunk][offset] = std::move(value);
    size_.store(std::size_t{i} + 1, std::memory_order_release);
    return i;
  }

 private:
  static constexpr std::size_t kFirstChunkBits = 6;
  static constexpr std::size_t kChunks = 33 - kFirstChunkBits;

  // Biasing the index by the first chunk's size puts its chunk at its top
  // set bit, and the offset is the bits below it: one bit scan.
  static std::pair<std::size_t, std::size_t> locate(std::uint32_t i) {
    const std::uint64_t biased =
        std::uint64_t{i} + (std::uint64_t{1} << kFirstChunkBits);
    const int top = std::bit_width(biased) - 1;
    return {static_cast<std::size_t>(top) - kFirstChunkBits,
            biased ^ (std::uint64_t{1} << top)};
  }

  std::array<std::unique_ptr<T[]>, kChunks> chunks_;
  std::atomic<std::size_t> size_{0};
};

/// Thread-safe interning registry. Ids are dense and stable for the lifetime
/// of the registry, so stores can use them as vector indices.
class MetricRegistry {
 public:
  /// Register (or look up) a metric family. Re-registering the same name
  /// returns the original index; metadata from the first call wins.
  std::uint32_t register_metric(const MetricInfo& info);

  /// Register (or look up) a component. Name must be unique system-wide.
  ComponentId register_component(const ComponentInfo& info);

  /// Intern the series for (metric, component), creating it on first use.
  SeriesId series(std::uint32_t metric_index, ComponentId component);

  /// Convenience: register metric by name with empty metadata + get series.
  SeriesId series(std::string_view metric_name, ComponentId component);

  std::optional<std::uint32_t> find_metric(std::string_view name) const;
  std::optional<ComponentId> find_component(std::string_view name) const;

  // Lock-free reads by id (see the header comment); an unknown id throws
  // std::out_of_range.
  /// The reference stays valid for the registry's lifetime.
  const MetricInfo& metric(std::uint32_t index) const {
    return metrics_.at(index);
  }
  const ComponentInfo& component(ComponentId id) const {
    return components_.at(raw(id));
  }
  /// Metric/component of an interned series.
  std::uint32_t series_metric(SeriesId id) const {
    return series_.at(raw(id)).metric;
  }
  ComponentId series_component(SeriesId id) const {
    return series_.at(raw(id)).component;
  }
  /// Shedding class of an interned series (its metric family's priority,
  /// copied when the series is interned; MetricInfo is immutable by then).
  Priority series_priority(SeriesId id) const {
    return series_.at(raw(id)).priority;
  }
  /// "metric@component" label for reports.
  std::string series_name(SeriesId id) const;

  std::size_t metric_count() const { return metrics_.size(); }
  std::size_t component_count() const { return components_.size(); }
  std::size_t series_count() const { return series_.size(); }

  /// All components of a given kind (e.g. every cabinet for Fig 3 panels).
  std::vector<ComponentId> components_of_kind(ComponentKind kind) const;
  /// Direct children of a component in the containment tree.
  std::vector<ComponentId> children_of(ComponentId parent) const;

  /// Render the full data dictionary (one line per metric family).
  std::string describe_all() const;

 private:
  struct SeriesRec {
    std::uint32_t metric = 0;
    ComponentId component = kNoComponent;
    Priority priority = Priority::kStandard;
  };

  // mu_ serializes writers and guards the three interning maps; the
  // tables are read without it.
  mutable std::mutex mu_;
  PublishedTable<MetricInfo> metrics_;
  std::unordered_map<std::string, std::uint32_t> metric_by_name_;
  PublishedTable<ComponentInfo> components_;
  std::unordered_map<std::string, ComponentId> component_by_name_;
  PublishedTable<SeriesRec> series_;
  std::unordered_map<std::uint64_t, SeriesId> series_by_key_;
};

}  // namespace hpcmon::core
