// Named-counter registry, log2 histograms and the sysdp-metrics documents.
//
// The registry is the telemetry layer's scoreboard: anything with a name
// and a number (cycles simulated, PE-busy steps, engine activity, trace
// drops) lands here, and every consumer — the sysdp_trace CLI, the
// sysdp_tool --metrics flag, tests — renders the same two views: aligned
// text for humans, a JSON object for machines.  Iteration order is the
// sorted key order (std::map), so renderings are deterministic and
// golden-testable regardless of insertion order.
//
// sysdp-metrics-v2 is the one-run document sysdp_trace emits: the
// registry plus the per-PE utilisation timeline, self-describing via a
// "schema" field like the bench and lint documents.  A registry carrying
// histograms adds a "histograms" object; nothing else depends on them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace sysdp::obs {

class TimelineSink;

/// Fixed-bucket log2 histogram for latency-style values: bucket 0 counts
/// zeros, bucket i >= 1 counts values in [2^(i-1), 2^i - 1] (the value's
/// bit width), 65 buckets covering all of uint64.  Quantiles resolve to
/// the upper bound of the bucket holding the rank (clamped to the observed
/// max) — deterministic, allocation-free, within 2x of the true order
/// statistic, which is the usual contract for bucketed latency metrics.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t value) {
    std::size_t b = 0;
    for (std::uint64_t v = value; v != 0; v >>= 1U) ++b;
    ++buckets_[b];
    sum_ += value;
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }

  /// Value at quantile `q` in [0, 1]: upper bound of the bucket containing
  /// rank ceil(q * count), clamped to [min, max].  0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// {"count": ..., "sum": ..., "min": ..., "max": ..., "p50": ...,
  ///  "p90": ..., "p99": ..., "buckets": [[upper_bound, count], ...]}
  /// with only non-empty buckets listed.
  [[nodiscard]] std::string to_json() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  /// Add `delta` to counter `name` (creating it at 0 first).
  void count(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Set counter `name` to an absolute value.
  void set_counter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }
  /// Set gauge `name` (a measured ratio or wall-clock figure).
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  /// Record one sample into histogram `name` (creating it empty first).
  void observe(const std::string& name, std::uint64_t value) {
    histograms_[name].record(value);
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Aligned "name  value" lines: counters, then gauges, then histogram
  /// summaries (count/p50/p90/p99).
  [[nodiscard]] std::string to_text() const;
  /// One JSON object: {"counters": {...}, "gauges": {...}}, plus a
  /// "histograms" object only when any histogram exists — histogram-free
  /// registries render exactly as before the histogram extension.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Render the metrics document for one run: the registry plus the
/// optional utilisation timeline (see obs/timeline.hpp).  The timeline's
/// aggregate equals the "busy_steps" counter by construction, which the
/// sysdp_trace CLI asserts before writing the file.  The schema is always
/// "sysdp-metrics-v2"; the "histograms" object inside "metrics" appears
/// only when some histogram was recorded.
[[nodiscard]] std::string metrics_json(const std::string& design,
                                       const MetricsRegistry& registry,
                                       const TimelineSink* timeline);

/// Write `content` to `path`; throws std::runtime_error on I/O failure.
/// The artifact writers (VCD, chrome trace, metrics documents) all share
/// this error contract.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace sysdp::obs
