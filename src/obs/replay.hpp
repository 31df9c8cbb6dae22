// Compiled-replay telemetry adapters: waveforms, timelines and profiles
// for CompiledEngine / BatchedCompiledEngine runs.
//
// The interpreted engine's sinks (obs/vcd.hpp, obs/timeline.hpp) observe a
// sim::Engine; the compiled backend has no modules or ports left to walk —
// only the flat tape and its slot→port provenance table
// (compile::Provenance, emitted at lowering).  The adapters here close
// that gap:
//
//   * ReplayVcdSink renders a compiled replay as an IEEE 1364 VCD with the
//     SAME signal names as the interpreted run: provenance lanes resolve
//     to module/port labels, bind events say which slot holds each
//     register's value at which VCD time, and the slot image passed to
//     on_level supplies the values.  Because bind stamps and slot values
//     are deterministic functions of the tape, the document is
//     byte-identical across batch widths and compacted/uncompacted tapes.
//   * ReplayTimelineSink drives a regular TimelineSink from op→module
//     attribution, one PE row per provenance module (plus a single
//     "(unattributed)" row if any op has no module), so per-PE busy
//     timelines and utilization read the same as interpreted ones and the
//     aggregate equals ops_executed by construction.
//   * profile_json / profile_metrics / append_replay_trace export a
//     compile::ReplayProfiler as the sysdp-profile-v1 document, histogram
//     metrics (obs/metrics.hpp) and Chrome-trace spans.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compile/profile.hpp"
#include "compile/program.hpp"
#include "compile/replay_observer.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/vcd.hpp"

namespace sysdp::obs {

/// VCD writer for compiled replays, driven by provenance bind events.
/// Only *named* lanes (matched to declared ports at lowering)
/// are rendered, so every emitted signal also exists in the interpreted
/// run's VCD; for batched engines, `lane` picks which batch lane's values
/// to dump.  A second on_replay_begin restarts the document.
class ReplayVcdSink final : public compile::ReplayObserver {
 public:
  explicit ReplayVcdSink(std::string top = "sysdp", std::uint32_t lane = 0,
                         VcdOptions options = {});

  void on_replay_begin(const compile::CompiledNetlist& net, const Cost* slots,
                       std::uint32_t lanes) override;
  void on_level(const compile::CompiledNetlist& net, sim::Cycle t,
                std::uint32_t lo, std::uint32_t hi, const Cost* slots,
                std::uint32_t lanes) override;

  /// Probes rendered (0 before the first on_replay_begin).
  [[nodiscard]] std::size_t num_signals() const noexcept {
    return probes_.size();
  }
  /// Sanitized signal names in document order, for name-parity checks.
  [[nodiscard]] std::vector<std::string> signal_names() const;

  /// The complete VCD document (header + dump so far).
  [[nodiscard]] std::string str() const { return header_ + body_; }
  /// Write str() to `path`; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Probe {
    std::string id;
    std::string name;       ///< sanitized label
    std::int64_t last = 0;
    bool known = false;     ///< a bind has supplied a value
  };

  std::string top_;
  std::uint32_t lane_;
  VcdOptions options_;
  std::string header_;
  std::string body_;
  std::vector<Probe> probes_;
  /// Probe index per provenance lane, or npos for unnamed lanes.
  std::vector<std::uint32_t> probe_of_lane_;
  std::size_t next_bind_ = 0;
  static constexpr std::uint32_t npos = 0xffffffffu;
};

/// Per-module busy timeline for compiled replays: each executed op counts
/// one busy step (per batch lane) for the module its provenance attributes
/// it to.  The aggregate equals the engine's ops_executed by construction
/// — the same cross-check sysdp_trace runs on interpreted timelines.
class ReplayTimelineSink final : public compile::ReplayObserver {
 public:
  explicit ReplayTimelineSink(sim::Cycle bucket_cycles = 1);

  void on_replay_begin(const compile::CompiledNetlist& net, const Cost* slots,
                       std::uint32_t lanes) override;
  void on_level(const compile::CompiledNetlist& net, sim::Cycle t,
                std::uint32_t lo, std::uint32_t hi, const Cost* slots,
                std::uint32_t lanes) override;

  /// Close the final (possibly partial) bucket.
  void finalize();

  /// PE-row names: provenance modules in id order, then "(unattributed)"
  /// if present.
  [[nodiscard]] const std::vector<std::string>& pe_names() const noexcept {
    return names_;
  }
  [[nodiscard]] std::uint64_t aggregate_busy() const;
  [[nodiscard]] double utilization() const;
  /// The composed TimelineSink (same JSON/bucket surface as interpreted
  /// timelines).  Throws std::logic_error before the first replay begins.
  [[nodiscard]] const TimelineSink& timeline() const;
  [[nodiscard]] std::string to_json() const { return timeline().to_json(); }

 private:
  sim::Cycle bucket_;
  std::vector<std::uint64_t> busy_;
  std::vector<std::string> names_;
  std::uint32_t num_modules_ = 0;
  bool unattributed_row_ = false;
  // Pointer (not optional member) so a fresh sink per replay re-baselines.
  std::unique_ptr<TimelineSink> timeline_;
};

/// Options for the sysdp-profile-v1 renderer.  Timing fields (wall-clock
/// nanoseconds, skew) are real measurements and therefore nondeterministic;
/// the structural fields (per-level op counts, kinds, replay shapes) are
/// functions of the tape alone.  Telemetry-determinism tests render with
/// include_timing = false and compare documents byte for byte.
struct ProfileJsonOptions {
  bool include_timing = true;
};

/// Render one ReplayProfiler as the sysdp-profile-v1 document.
[[nodiscard]] std::string profile_json(const std::string& design,
                                       const compile::CompiledNetlist& net,
                                       const compile::ReplayProfiler& profiler,
                                       const ProfileJsonOptions& options = {});

/// Record the profiler into `registry`: per-replay latency and per-level
/// wall-time histograms ("replay.wall_ns", "replay.level_ns"), replay/op
/// counters and the replay-skew gauge.
void profile_metrics(MetricsRegistry& registry,
                     const compile::ReplayProfiler& profiler);

/// Chrome-trace spans for a profiled replay, in simulated time: one span
/// per non-empty dependency level (cycle t drawn at t*kCycleMicroseconds)
/// plus an op-lane counter series — deterministic, so the trace is
/// comparable across runs; wall times live in the profile document.
void append_replay_trace(ChromeTraceWriter& writer, const std::string& name,
                         const compile::ReplayProfiler& profiler,
                         std::uint32_t pid = 4);

}  // namespace sysdp::obs
