#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/json_util.hpp"
#include "obs/timeline.hpp"

namespace sysdp::obs {

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  auto rank = static_cast<std::uint64_t>(clamped * static_cast<double>(count_));
  if (static_cast<double>(rank) < clamped * static_cast<double>(count_)) {
    ++rank;  // ceil
  }
  if (rank == 0) rank = 1;
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    acc += buckets_[b];
    if (acc >= rank) {
      const std::uint64_t upper =
          b == 0 ? 0
                 : (b >= 64 ? max_
                            : (std::uint64_t{1} << b) - 1);
      return std::min(std::max(upper, min_), max_);
    }
  }
  return max_;
}

std::string Histogram::to_json() const {
  std::string out = "{\"count\": " + std::to_string(count_) +
                    ", \"sum\": " + std::to_string(sum_) +
                    ", \"min\": " + std::to_string(min_) +
                    ", \"max\": " + std::to_string(max_) +
                    ", \"p50\": " + std::to_string(quantile(0.50)) +
                    ", \"p90\": " + std::to_string(quantile(0.90)) +
                    ", \"p99\": " + std::to_string(quantile(0.99)) +
                    ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (!first) out += ", ";
    first = false;
    const std::uint64_t upper =
        b == 0 ? 0
               : (b >= 64 ? max_ : (std::uint64_t{1} << b) - 1);
    out += "[" + std::to_string(upper) + ", " + std::to_string(buckets_[b]) +
           "]";
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::to_text() const {
  std::size_t width = 0;
  for (const auto& kv : counters_) width = std::max(width, kv.first.size());
  for (const auto& kv : gauges_) width = std::max(width, kv.first.size());
  for (const auto& kv : histograms_) width = std::max(width, kv.first.size());
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += name;
    out.append(width - name.size() + 2, ' ');
    out += std::to_string(value);
    out += '\n';
  }
  for (const auto& [name, value] : gauges_) {
    out += name;
    out.append(width - name.size() + 2, ' ');
    out += json_double(value);
    out += '\n';
  }
  for (const auto& [name, hist] : histograms_) {
    out += name;
    out.append(width - name.size() + 2, ' ');
    out += "count=" + std::to_string(hist.count()) +
           " p50=" + std::to_string(hist.quantile(0.50)) +
           " p90=" + std::to_string(hist.quantile(0.90)) +
           " p99=" + std::to_string(hist.quantile(0.99));
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(name) + "\": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(name) + "\": " + json_double(value);
  }
  out += "}";
  if (!histograms_.empty()) {
    out += ", \"histograms\": {";
    first = true;
    for (const auto& [name, hist] : histograms_) {
      if (!first) out += ", ";
      first = false;
      out += '"' + json_escape(name) + "\": " + hist.to_json();
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string metrics_json(const std::string& design,
                         const MetricsRegistry& registry,
                         const TimelineSink* timeline) {
  std::string out = "{\n  \"schema\": \"sysdp-metrics-v2\",\n"
                    "  \"design\": \"" + json_escape(design) +
                    "\",\n  \"metrics\": " + registry.to_json();
  if (timeline != nullptr) {
    out += ",\n  \"timeline\": " + timeline->to_json();
  }
  out += "\n}\n";
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) {
    throw std::runtime_error("obs::write_text_file: write failed for " + path);
  }
}

}  // namespace sysdp::obs
