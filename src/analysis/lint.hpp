// Static checker framework over captured netlists.
//
// The linter turns the systolic correctness arguments the simulator used
// to take on faith into machine-checked structural properties.  Six
// built-in checks:
//
//   multiple-drivers  — a register written, or a bus driven, by more than
//                       one module: last-write-wins would depend on eval
//                       order, and real buses forbid it outright.  Also
//                       flags a key declared both register and signal.
//   comb-hazard       — same-phase read-after-write hazards: a signal
//                       driven by a module not marked combinational() (the
//                       gated engine evaluates flagged drivers before every
//                       unflagged module, so it would run late), a listener
//                       registered before its driver (it reads last
//                       cycle's value), and combinational cycles.
//   dangling-port     — a read port no module or environment tap ever
//                       drives (warning: the reader sees only the initial
//                       value), and a written port nothing reads (note).
//   orphan-module     — a module the design constructed but never
//                       registered with the Engine: it would simply not be
//                       simulated.
//   wakeup-coverage   — the PR 2 quiescence contract: every dataflow edge
//                       into a module that sleeps and reactivates
//                       (SleepMode::kWakeable) must be covered by a
//                       declared wakeup edge.  A combinational signal that
//                       derives() from a register may instead be covered
//                       by an edge from that register's writer — the
//                       retiming argument (Leiserson & Saxe) made
//                       checkable.  Declared edges may be a superset;
//                       missing ones are errors, because Gating::kSparse
//                       silently diverges from dense execution without
//                       them.
//   probe-coverage    — a storage some module writes but no writing port
//                       covers with a telemetry sampler (note): the VCD
//                       layer (src/obs) cannot observe it, so waveforms of
//                       this design silently omit the lane.
//
// Severities are per-check and overridable; reports render as human text
// or JSON (schema sysdp-lint-v1).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/netlist.hpp"

namespace sysdp::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(Severity s) noexcept;

/// One finding, tagged with the check that produced it and the module /
/// storage it is anchored to.
struct Diagnostic {
  std::string check;
  Severity severity = Severity::kError;
  std::string module;   ///< primary source tag (module name)
  std::string storage;  ///< storage label, empty if not port-anchored
  std::string message;
};

struct LintReport {
  std::string design;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] std::size_t errors() const noexcept {
    return count(Severity::kError);
  }
  [[nodiscard]] std::size_t warnings() const noexcept {
    return count(Severity::kWarning);
  }
  /// True if no diagnostic at or above `fail_at` was produced.
  [[nodiscard]] bool clean(Severity fail_at = Severity::kError) const noexcept;

  [[nodiscard]] std::string to_text() const;
  /// One JSON object: {"design": ..., "diagnostics": [...], "counts": ...}.
  [[nodiscard]] std::string to_json() const;
};

class Linter {
 public:
  static constexpr std::string_view kMultipleDrivers = "multiple-drivers";
  static constexpr std::string_view kCombHazard = "comb-hazard";
  static constexpr std::string_view kDanglingPort = "dangling-port";
  static constexpr std::string_view kOrphanModule = "orphan-module";
  static constexpr std::string_view kWakeupCoverage = "wakeup-coverage";
  static constexpr std::string_view kProbeCoverage = "probe-coverage";

  /// All six checks enabled at their default severities.
  Linter();

  /// Override the principal severity of one check (e.g. demote
  /// wakeup-coverage to a warning while bringing up a new array).
  /// Unknown check names throw std::invalid_argument.
  void set_severity(std::string_view check, Severity s);

  [[nodiscard]] LintReport run(const Netlist& net,
                               std::string design_name) const;

 private:
  [[nodiscard]] Severity severity_of(std::string_view check) const;

  struct CheckSeverity {
    std::string_view check;
    Severity severity;
  };
  std::vector<CheckSeverity> severities_;
};

}  // namespace sysdp::analysis
