// Chrome trace-event JSON exporter (load in Perfetto / chrome://tracing).
//
// One writer covers both time domains the repo has:
//
//   * simulated time — DnC scheduler busy spans (dnc::ScheduleSpan, units
//     of T_1 mapped to microseconds) and cycle-bucketed PE activity
//     counters (TimelineSink), drawn per array / per PE so eq. (29)'s
//     wind-down phase and eq. (9)'s fill/drain are visible as idle gaps;
//   * host wall-clock — ThreadPool lane spans and barrier waits recorded
//     by PoolTraceRecorder, explaining where BatchSpeedup's time goes.
//
// The writer is bounded with an explicit drop count (same policy surface
// as sim::Trace): a runaway span source truncates the trace and says so,
// instead of eating the heap.  Events are rendered eagerly to JSON
// fragments; str() wraps them in the standard {"traceEvents": [...]}
// envelope, which both Perfetto and chrome://tracing accept.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "dnc/schedule.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp::obs {

class TimelineSink;

class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::size_t max_events = 1 << 20)
      : max_events_(max_events) {}
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter(ChromeTraceWriter&&) = delete;
  ChromeTraceWriter& operator=(ChromeTraceWriter&&) = delete;
  /// A streaming writer closes the JSON envelope here, so the file on
  /// disk parses even when a run throws mid-trace.
  ~ChromeTraceWriter();

  /// Stream the document to `path` incrementally: events are teed to the
  /// file as they are pushed, and close() (or the destructor) writes the
  /// closing envelope — so a run that throws still leaves a parseable
  /// trace of everything recorded before the failure.  Throws
  /// std::runtime_error if the file cannot be opened.
  void stream_to(const std::string& path);

  /// Finish the envelope, flush and close; reports I/O errors by
  /// exception (the destructor closes silently instead).  No-op when not
  /// streaming.  No events can be streamed after close().
  void close();

  /// Complete event (ph "X"): a [ts, ts+dur) span on (pid, tid).
  /// Timestamps are microseconds, as the trace-event format specifies.
  void complete_event(const std::string& name, const std::string& category,
                      std::uint32_t pid, std::uint32_t tid, double ts_us,
                      double dur_us);
  /// Counter event (ph "C"): one named series sampled at ts.
  void counter_event(const std::string& name, std::uint32_t pid, double ts_us,
                     const std::string& series, std::int64_t value);
  /// Metadata: name the process / thread rows in the viewer.
  void process_name(std::uint32_t pid, const std::string& name);
  void thread_name(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_;
  }

  /// The complete JSON document.
  [[nodiscard]] std::string str() const;
  /// Write str() to `path`; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void push(std::string json);

  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> events_;  ///< pre-rendered JSON objects
  std::ofstream stream_;
  std::size_t streamed_ = 0;  ///< events already teed to the stream
};

/// Thread-safe sim::PoolObserver that buffers spans for later export.
class PoolTraceRecorder final : public sim::PoolObserver {
 public:
  struct Span {
    std::size_t lane;
    SpanKind kind;
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
  };

  void on_span(std::size_t lane, SpanKind kind, std::uint64_t t0_ns,
               std::uint64_t t1_ns) override {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{lane, kind, t0_ns, t1_ns});
  }

  /// Snapshot of the recorded spans (copy, taken under the lock).
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// DnC scheduler spans: one viewer thread per array that ran a product
/// (at most min(K, spans) of them, so the trace does not grow with K), one
/// 1-T_1-wide span per executed product (T_1 rendered as kT1Microseconds).
/// Names the process "dnc scheduler (K=k)".
void append_schedule_trace(ChromeTraceWriter& writer,
                           const std::vector<ScheduleSpan>& spans,
                           std::uint64_t k, std::uint32_t pid = 1);

/// PE-busy counters from a (finalized) timeline: an aggregate series
/// always, per-PE series only for arrays small enough to stay readable.
void append_timeline_trace(ChromeTraceWriter& writer,
                           const TimelineSink& timeline,
                           std::uint32_t pid = 2);

/// Host-layer pool spans, normalised so the earliest span starts at 0.
void append_pool_trace(ChromeTraceWriter& writer,
                       const PoolTraceRecorder& recorder,
                       std::uint32_t pid = 3);

/// Microseconds one scheduler step (T_1) is drawn as.
inline constexpr double kT1Microseconds = 1000.0;
/// Microseconds one engine cycle is drawn as.
inline constexpr double kCycleMicroseconds = 1.0;

}  // namespace sysdp::obs
