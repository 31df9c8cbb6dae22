// Shared pieces of the end-to-end benchmark program: run options, failure
// accounting, the in-memory span recorder behind the traced run, and the
// statistics every workload reports with.
//
// The program is one single-threaded client running a closed loop: each
// operation starts when the previous one returns.  Every workload calls
// only the library's public functions, checks every answer against
// src/baseline, and reports host time; simulated cycles appear only as
// exact counts and in the correctness checks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

/// Attempts and failures of one run.  A failure is anything that keeps an
/// instance from a checked answer: a wrong answer, an exception, a verifier
/// error, a replay divergence, or a simulated count off its closed form.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count `n` failed attempts; the first few are described on stderr.
  void fail(const std::string& what, std::uint64_t n = 1);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder.  A span is one call into a layer: its stage
/// names the layer as the prefix before the first dot ("io.parse" belongs
/// to `io`), and the instance id goes into the exported name.  Nesting on
/// the single client thread gives the parent.  Spans stay in memory and
/// are written once, at exit, through obs::ChromeTraceWriter and
/// obs::MetricsRegistry.
///
/// Operation spans are timed in every run, because the end-to-end metrics
/// are their durations; stage spans cost nothing unless tracing is on.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer& tracer, std::string_view family, std::uint64_t id,
         std::string_view stage, bool timed);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() { stop(); }

    /// End the span (idempotent).  Returns its length in milliseconds, or
    /// 0 for a stage span of an untraced run.
    double stop();

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    Clock::time_point t0_;
    double ms_ = 0;
    bool timed_ = false;
    bool open_ = true;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A client-visible operation: always timed, recorded when tracing.
  /// `family` and `stage` must name storage that outlives the tracer
  /// (string literals or the namespace-scope family names).
  [[nodiscard]] Span op(std::string_view family, std::uint64_t id,
                        std::string_view stage) {
    return {*this, family, id, stage, true};
  }
  /// A call into one layer: timed and recorded only when tracing.
  [[nodiscard]] Span stage(std::string_view family, std::uint64_t id,
                           std::string_view stage) {
    return {*this, family, id, stage, enabled_};
  }

  /// Where self time went: the stage of the top-level span a span runs
  /// under (the timed operation, set-up, or an untimed check or probe),
  /// the span's family, and its stage.
  using SelfKey = std::array<std::string, 3>;
  /// Self time in milliseconds per key: each span's length minus the part
  /// its direct children cover.
  [[nodiscard]] std::map<SelfKey, double> self_ms() const;

  /// Write the chrome trace and the metrics document (per-span log2
  /// histograms, run counters, and `gauges`) into `dir`.
  void write(const std::string& dir, const std::string& stem,
             const std::map<std::string, double>& gauges,
             const std::map<std::string, std::uint64_t>& counters) const;

 private:
  struct Record {
    std::string_view family;
    std::string_view stage;
    std::uint64_t id = 0;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::uint32_t depth = 0;
  };

  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::uint32_t depth_ = 0;
};

/// Per-layer samples gathered by a traced run, reduced to metrics at the
/// end: `sample` collects values whose median is reported, `add`
/// accumulates totals for ratios and counts.
class LayerStats {
 public:
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void add(const std::string& name, double value) { sums_[name] += value; }
  [[nodiscard]] double sum(const std::string& name) const;
  /// Median of a sampled name, 0 when it has no samples.
  [[nodiscard]] double median_of(const std::string& name) const;
  /// Smallest sample of a name, 0 when it has no samples.
  [[nodiscard]] double min_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> sums_;
};

/// What a workload hands back to main().
struct Outcome {
  /// Latency of every timed operation whose answers were all right, in ms.
  std::vector<double> op_ms;
  /// Total time of all timed operations, failed ones included, in ms.
  double busy_ms = 0;
  /// Distinct instances those operations answered correctly.
  std::uint64_t instances = 0;
  /// Length of each set-up round, in seconds.
  std::vector<double> setup_s;
  /// Per-layer metrics of a traced run (names from layer_metrics()).
  std::map<std::string, double> layers;
};

Outcome run_oneshot(const Options& opt, Tracer& tracer, Ledger& ledger);
Outcome run_rebind(const Options& opt, Tracer& tracer, Ledger& ledger);
Outcome run_sweep(const Options& opt, Tracer& tracer, Ledger& ledger);

/// Every per-layer metric a traced run reports, with its unit, in report
/// order.  A metric a workload does not exercise reads 0.
struct MetricDef {
  std::string name;
  std::string unit;
};
[[nodiscard]] std::vector<MetricDef> layer_metrics();

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.  0 on an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Family names: the prefix of per-family metrics and of span names.
inline constexpr std::string_view kDesign1 = "design1";
inline constexpr std::string_view kDesign2 = "design2";
inline constexpr std::string_view kDesign3 = "design3";
inline constexpr std::string_view kGkt = "gkt";
inline constexpr std::string_view kBst = "bst";

/// Run passes of a closed loop until `seconds` of wall time are spent and
/// at least `min_ops` operations were attempted.  `pass` returns the
/// operations it attempted.  A pass always completes, so every run sees
/// whole passes of its instance mix.
template <typename Pass>
void run_passes(double seconds, std::size_t min_ops, Pass&& pass) {
  const auto start = Clock::now();
  std::size_t ops = 0;
  do {
    ops += pass();
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
               seconds ||
           ops < min_ops);
}

}  // namespace perfbench
