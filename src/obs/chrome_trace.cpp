#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json_util.hpp"
#include "obs/timeline.hpp"

namespace sysdp::obs {

void ChromeTraceWriter::push(std::string json) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(json));
  if (stream_.is_open()) {
    stream_ << (streamed_ == 0 ? "\n" : ",\n") << events_.back();
    stream_.flush();
    ++streamed_;
  }
}

ChromeTraceWriter::~ChromeTraceWriter() {
  // Best-effort envelope close; errors are deliberately swallowed here —
  // use close() for a reporting shutdown.
  if (stream_.is_open()) {
    try {
      close();
    } catch (const std::runtime_error&) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void ChromeTraceWriter::stream_to(const std::string& path) {
  stream_.open(path, std::ios::binary | std::ios::trunc);
  if (!stream_) {
    throw std::runtime_error("ChromeTraceWriter::stream_to: cannot open " +
                             path);
  }
  stream_ << "{\"traceEvents\": [";
  // Catch up on events pushed before streaming started.
  for (const std::string& e : events_) {
    stream_ << (streamed_ == 0 ? "\n" : ",\n") << e;
    ++streamed_;
  }
  stream_.flush();
}

void ChromeTraceWriter::close() {
  if (!stream_.is_open()) return;
  stream_ << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
             "{\"dropped_events\": " +
                 std::to_string(dropped_) + "}}\n";
  stream_.close();
  if (stream_.fail()) {
    throw std::runtime_error("ChromeTraceWriter::close: write failed");
  }
}

void ChromeTraceWriter::complete_event(const std::string& name,
                                       const std::string& category,
                                       std::uint32_t pid, std::uint32_t tid,
                                       double ts_us, double dur_us) {
  push("{\"name\": \"" + json_escape(name) + "\", \"cat\": \"" +
       json_escape(category) + "\", \"ph\": \"X\", \"pid\": " +
       std::to_string(pid) + ", \"tid\": " + std::to_string(tid) +
       ", \"ts\": " + json_double(ts_us) + ", \"dur\": " +
       json_double(dur_us) + "}");
}

void ChromeTraceWriter::counter_event(const std::string& name,
                                      std::uint32_t pid, double ts_us,
                                      const std::string& series,
                                      std::int64_t value) {
  push("{\"name\": \"" + json_escape(name) + "\", \"ph\": \"C\", \"pid\": " +
       std::to_string(pid) + ", \"ts\": " + json_double(ts_us) +
       ", \"args\": {\"" + json_escape(series) + "\": " +
       std::to_string(value) + "}}");
}

void ChromeTraceWriter::process_name(std::uint32_t pid,
                                     const std::string& name) {
  push("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
       std::to_string(pid) + ", \"args\": {\"name\": \"" + json_escape(name) +
       "\"}}");
}

void ChromeTraceWriter::thread_name(std::uint32_t pid, std::uint32_t tid,
                                    const std::string& name) {
  push("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
       std::to_string(pid) + ", \"tid\": " + std::to_string(tid) +
       ", \"args\": {\"name\": \"" + json_escape(name) + "\"}}");
}

std::string ChromeTraceWriter::str() const {
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += events_[i];
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
         "{\"dropped_events\": " +
         std::to_string(dropped_) + "}}\n";
  return out;
}

void ChromeTraceWriter::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("ChromeTraceWriter: cannot open " + path);
  }
  out << str();
  if (!out) {
    throw std::runtime_error("ChromeTraceWriter: write failed for " + path);
  }
}

void append_schedule_trace(ChromeTraceWriter& writer,
                           const std::vector<ScheduleSpan>& spans,
                           std::uint64_t k, std::uint32_t pid) {
  writer.process_name(pid, "dnc scheduler (K=" + std::to_string(k) + ")");
  // Arrays are batch positions 0, 1, ..., so the ones that ran a product
  // are those below the widest batch: at most min(K, spans), and a huge K
  // costs nothing.
  std::uint64_t width = 0;
  for (const ScheduleSpan& s : spans) width = std::max(width, s.array + 1);
  for (std::uint64_t a = 0; a < width; ++a) {
    writer.thread_name(pid, static_cast<std::uint32_t>(a),
                       "array " + std::to_string(a));
  }
  for (const ScheduleSpan& s : spans) {
    writer.complete_event("node " + std::to_string(s.node), "dnc", pid,
                          static_cast<std::uint32_t>(s.array),
                          static_cast<double>(s.start) * kT1Microseconds,
                          kT1Microseconds);
  }
}

void append_timeline_trace(ChromeTraceWriter& writer,
                           const TimelineSink& timeline, std::uint32_t pid) {
  writer.process_name(pid, "pe activity");
  const auto& per_pe = timeline.per_pe();
  const double bucket_us =
      static_cast<double>(timeline.bucket_cycles()) * kCycleMicroseconds;
  // Per-PE series stay readable for small arrays only; the aggregate is
  // always emitted so heatmap totals are never silently capped.
  constexpr std::size_t kMaxPerPeSeries = 32;
  const bool per_pe_series = per_pe.size() <= kMaxPerPeSeries;
  for (std::size_t b = 0; b < timeline.num_buckets(); ++b) {
    std::int64_t total = 0;
    for (std::size_t pe = 0; pe < per_pe.size(); ++pe) {
      const auto v = static_cast<std::int64_t>(per_pe[pe][b]);
      total += v;
      if (per_pe_series) {
        writer.counter_event("pe" + std::to_string(pe), pid,
                             static_cast<double>(b) * bucket_us, "busy", v);
      }
    }
    writer.counter_event("busy_total", pid,
                         static_cast<double>(b) * bucket_us, "busy", total);
  }
}

void append_pool_trace(ChromeTraceWriter& writer,
                       const PoolTraceRecorder& recorder, std::uint32_t pid) {
  const auto spans = recorder.spans();
  writer.process_name(pid, "host thread pool");
  if (spans.empty()) return;
  std::uint64_t t0 = spans.front().t0_ns;
  std::size_t max_lane = 0;
  for (const auto& s : spans) {
    t0 = std::min(t0, s.t0_ns);
    max_lane = std::max(max_lane, s.lane);
  }
  for (std::size_t lane = 0; lane <= max_lane; ++lane) {
    writer.thread_name(pid, static_cast<std::uint32_t>(lane),
                       lane == 0 ? "caller" : "worker " + std::to_string(lane));
  }
  for (const auto& s : spans) {
    const char* name = "chunk";
    const char* cat = "work";
    if (s.kind == sim::PoolObserver::SpanKind::kTask) {
      name = "task";
    } else if (s.kind == sim::PoolObserver::SpanKind::kBarrierWait) {
      name = "barrier_wait";
      cat = "wait";
    }
    writer.complete_event(name, cat, pid, static_cast<std::uint32_t>(s.lane),
                          static_cast<double>(s.t0_ns - t0) / 1000.0,
                          static_cast<double>(s.t1_ns - s.t0_ns) / 1000.0);
  }
}

}  // namespace sysdp::obs
