#pragma once

/// \file metrics.hpp
/// Labeled metric registry: counters, gauges, and fixed-bucket histograms
/// keyed by (name, label set).
///
/// The design goals, in order:
///
///  1. **Stable handles.** counter()/gauge()/histogram() return small
///     handle objects wrapping a pointer to the cell inside a std::map.
///     Map nodes never move, so handles stay valid across later
///     registrations *and across reset()* — reset() zeroes every cell in
///     place instead of clearing the maps, so benches may hold handles
///     across repetitions.
///  2. **Deterministic export.** All iteration is over ordered maps, so
///     two registries with the same contents serialise byte-identically.
///  3. **Fixed buckets.** Histograms take their upper bounds at creation
///     and never rebucket, so dumps from different runs are directly
///     comparable and merging is trivial.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "obs/labels.hpp"

namespace meteo::obs {

/// Identity of one metric series: name plus canonical (sorted) labels.
struct MetricKey {
  std::string name;
  Labels labels;

  friend bool operator<(const MetricKey& a, const MetricKey& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  }
  friend bool operator==(const MetricKey& a, const MetricKey& b) = default;
};

/// Fixed-bucket histogram cell. Buckets are cumulative-style "le" bounds:
/// bucket i counts observations v with v <= upper_bounds[i] (and greater
/// than the previous bound); one implicit overflow bucket counts
/// everything above the last bound.
struct HistogramData {
  std::vector<double> upper_bounds;    ///< strictly increasing
  std::vector<std::uint64_t> buckets;  ///< size = upper_bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;

  void observe(double value);
  void reset_values();

  /// Minimum / maximum observed value; 0 when the histogram is empty.
  [[nodiscard]] double min() const { return count == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count == 0 ? 0.0 : max_; }

 private:
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Handle to a counter cell. Valid for the registry's lifetime,
/// including across reset().
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}

  Counter& operator+=(std::uint64_t n) {
    *cell_ += n;
    return *this;
  }
  Counter& operator++() {
    ++*cell_;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return *cell_; }

 private:
  std::uint64_t* cell_ = nullptr;
};

/// Handle to a gauge cell (a point-in-time double, overwritten by set()).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(double* cell) : cell_(cell) {}

  void set(double value) { *cell_ = value; }
  [[nodiscard]] double value() const { return *cell_; }

 private:
  double* cell_ = nullptr;
};

/// Handle to a histogram cell.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(HistogramData* cell) : cell_(cell) {}

  void observe(double value) { cell_->observe(value); }
  [[nodiscard]] const HistogramData& data() const { return *cell_; }

 private:
  HistogramData* cell_ = nullptr;
};

/// The registry. Not thread-safe by design: the execution engine
/// records metrics only on the coordinating thread, in op-index order
/// (DESIGN.md §8/§11), so a mutex here would buy nothing and cost
/// determinism reviews their confidence.
class MetricRegistry {
 public:
  /// Find-or-create. Labels are normalised (sorted) internally; the
  /// same logical set always returns the same cell.
  Counter counter(std::string name, Labels labels = {});
  Gauge gauge(std::string name, Labels labels = {});

  /// Find-or-create with fixed bucket upper bounds (strictly increasing,
  /// may be empty = count/sum/min/max only). Re-requesting an existing
  /// histogram with different bounds is a precondition violation.
  Histogram histogram(std::string name, std::vector<double> upper_bounds,
                      Labels labels = {});

  /// Point lookups (0 / nullptr when the series does not exist).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] double gauge_value(std::string_view name,
                                   const Labels& labels = {}) const;
  [[nodiscard]] const HistogramData* find_histogram(
      std::string_view name, const Labels& labels = {}) const;

  /// Sum of a counter across every label set sharing `name` (e.g. total
  /// op.count over all outcomes).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;

  /// Sum of `name` restricted to series carrying every label in
  /// `subset` (e.g. op.count for op=publish across outcomes).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name,
                                            const Labels& subset) const;

  [[nodiscard]] const std::map<MetricKey, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<MetricKey, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<MetricKey, HistogramData>& histograms() const {
    return histograms_;
  }

  /// Zero every cell **in place**. Series keys survive, bucket layouts
  /// survive, and every outstanding handle stays valid and observes the
  /// zeroed cell. This is the documented reset contract (the old
  /// registry cleared its maps, silently dangling held references).
  void reset();

  /// True when no series has been registered.
  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<MetricKey, std::uint64_t> counters_;
  std::map<MetricKey, double> gauges_;
  std::map<MetricKey, HistogramData> histograms_;
};

/// Bucket presets shared by the op path so every hop histogram is
/// directly comparable across ops and runs.
[[nodiscard]] std::vector<double> hop_buckets();    ///< routing/walk hops
[[nodiscard]] std::vector<double> cost_buckets();   ///< timeout seconds
[[nodiscard]] std::vector<double> count_buckets();  ///< item counts

}  // namespace meteo::obs
