// Static verifier over compiled flat-netlist tapes.
//
// The compiled backend's correctness evidence so far is dynamic: checked
// replay against recorded oracle values, differential sweeps, sanitizer
// jobs.  TapeVerifier adds the static half — machine-checked structural
// proofs over a compile::CompiledNetlist that hold before a single cycle
// is replayed, the same treatment the netlist linter (analysis/lint.hpp)
// gives elaborated designs.  Nine checks:
//
//   tape-structure      — the tape is safely traversable at all: CSR cycle
//                         index well-formed (monotone offsets, first 0,
//                         last == op count), every slot reference in
//                         range (incl. kRelax pair halves), op kinds
//                         valid, expected-value array parallel to the
//                         tape.  Failing this skips the deeper checks —
//                         nothing below may index a corrupt tape.
//   def-before-use      — every operand read resolves to *some*
//                         definition (SlotInit or an op); a slot read but
//                         never written anywhere is dangling.  kRelax
//                         pair operands must have both halves defined by
//                         the same definition.
//   level-schedule      — the race-freedom proof for level-by-level
//                         replay: every operand's definition lies in a
//                         strictly earlier dependency level, or earlier
//                         in the same level (an in-level chain, which
//                         the engine's tape-order runs preserve on every
//                         lane).  Reading a def from a later level/op is
//                         a schedule violation (error).  Also accounts
//                         dependence depth vs. levels: ops scheduled
//                         later than their dependence-minimal level carry
//                         *transport slack* — the physical array's data
//                         movement, erased by copy elision — reported as
//                         stats (and bounded on demand via
//                         TapeVerifyOptions::max_transport_slack).
//   single-assignment   — SSA on uncompacted tapes: no slot is written
//                         twice (kRelax's dst/dst+1 double write is one
//                         definition of a pair group, not a violation).
//                         Compacted tapes reuse slots by design; their
//                         write discipline is compaction-safety's job.
//   output-reachability — every declared Output slot has a definition
//                         (error), and every op transitively feeds some
//                         declared output through resolved def-use edges
//                         (a dead op is a warning: the tape carries work
//                         the outputs never observe).
//   value-range         — abstract interpretation over (MIN,+)/(MAX,+):
//                         per-slot intervals (finite range + may-be-inf
//                         flags) propagated from SlotInit and immediate
//                         weights through every kernel.  Certifies that
//                         no finite-by-finite addition can saturate into
//                         the infinity sentinels (error if it can — the
//                         kernels would silently clamp a real cost) and
//                         that every reachable finite value fits the
//                         configured bound (default: int32), so
//                         narrow-lane SIMD kernels are provably lossless
//                         for this tape.
//   compaction-safety   — after live-range compaction no two overlapping
//                         live ranges share a slot: every redefinition of
//                         a slot happens in a strictly later level than
//                         the previous definition's last touch.  The
//                         verifier's own per-definition scan is
//                         cross-checked group by group against
//                         compile/live_range.hpp — the very analysis that
//                         drives compact_slots() — so the pass and its
//                         proof cannot drift apart silently.
//   bind-plane          — parameter-plane consistency on parameterised
//                         tapes: every op's parameter index in range, the
//                         baked immediates equal to the oracle binding
//                         (the engine's oracle-bound path reads the
//                         immediates and must see the same weights), and
//                         any rebinding table offered for
//                         verification shaped to the plane (an op whose
//                         parameter lies outside it is range-checked
//                         under its baked weight).  A
//                         non-parameterised tape must carry no plane.
//   provenance          — slot→port provenance consistency: the op→lane
//                         attribution parallel to the tape (or absent),
//                         every lane/slot/module index in range, bind
//                         events sorted by stamp with stamps inside the
//                         replayed cycle range, and — on uncompacted
//                         tapes, where a slot has one definition — every
//                         bind sampling its slot no earlier than the
//                         level that defines it.  An empty table passes
//                         trivially: provenance is optional, but never
//                         silently wrong.
//
// Severities are per-check and overridable; reports render as human text
// or JSON (schema sysdp-tapelint-v1, emitted by sysdp_lint --tape).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "compile/program.hpp"
#include "semiring/cost.hpp"

namespace sysdp::analysis {

/// What the verifier measured while proving — the quantitative half of
/// the report, carried alongside the diagnostics.
struct TapeVerifyStats {
  std::uint64_t ops = 0;
  std::uint64_t slots = 0;
  std::uint64_t levels = 0;           ///< dependency levels (oracle cycles)
  std::uint64_t nonempty_levels = 0;
  std::uint64_t outputs = 0;
  bool compacted = false;
  bool parameterised = false;
  /// Same-level RAW reads (in-place fold chains) — the reads a replay must
  /// keep in tape order.
  std::uint64_t in_level_chains = 0;
  /// Longest def-use chain through the tape, in ops.  The tape can never
  /// replay in fewer steps than this, whatever the schedule.
  std::uint64_t dependence_depth = 0;
  /// Ops scheduled later than their dependence-minimal level, and the
  /// largest such gap.  On the paper designs this is the physical array's
  /// transport latency (flits travelling between PEs), erased from the
  /// tape by copy elision.
  std::uint64_t transport_slack_ops = 0;
  std::uint64_t max_transport_slack = 0;
  std::uint64_t dead_ops = 0;
  /// Largest |finite value| any slot can hold under the verified binding,
  /// per the abstract interpretation; int32_safe records whether it (and
  /// every intermediate) fits TapeVerifyOptions::value_bound.
  Cost max_abs_finite = 0;
  bool int32_safe = false;
  /// Provenance table shape: narrated lanes, bind events, and how many
  /// ops carry a lane attribution (0 everywhere when the table is empty).
  std::uint64_t provenance_lanes = 0;
  std::uint64_t provenance_binds = 0;
  std::uint64_t ops_attributed = 0;
};

struct TapeVerifyReport {
  std::string design;
  TapeVerifyStats stats;
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
  /// One JSON object: {"design": ..., "tape": {...stats...},
  /// "counts": ..., "diagnostics": [...]}.
  [[nodiscard]] std::string to_json() const;
};

struct TapeVerifyOptions {
  /// Verify under this weight binding instead of the baked immediates
  /// (parameterised tapes only): value-range intervals are propagated
  /// from these weights, proving the rebound replay safe, not just the
  /// oracle's.  Length must equal the tape's parameter count.
  std::vector<Cost> bound_weights;
  /// Upper bound on per-op transport slack; an op scheduled more than
  /// this many levels after its dependence-minimal level is an error.
  /// Negative disables the bound (the default — slack is reported as
  /// stats either way).
  std::int64_t max_transport_slack = -1;
  /// Finite-magnitude certification bound for value-range (default: the
  /// int32 range, proving narrow-lane kernels lossless).
  Cost value_bound = 2147483647;
};

class TapeVerifier {
 public:
  static constexpr std::string_view kTapeStructure = "tape-structure";
  static constexpr std::string_view kDefBeforeUse = "def-before-use";
  static constexpr std::string_view kLevelSchedule = "level-schedule";
  static constexpr std::string_view kSingleAssignment = "single-assignment";
  static constexpr std::string_view kOutputReachability =
      "output-reachability";
  static constexpr std::string_view kValueRange = "value-range";
  static constexpr std::string_view kCompactionSafety = "compaction-safety";
  static constexpr std::string_view kBindPlane = "bind-plane";
  static constexpr std::string_view kProvenance = "provenance";

  /// All nine checks enabled at their default severities.
  TapeVerifier();

  /// Override the principal severity of one check.  Unknown check names
  /// throw std::invalid_argument listing the known ones.
  void set_severity(std::string_view check, Severity s);

  [[nodiscard]] TapeVerifyReport run(const compile::CompiledNetlist& net,
                                     std::string design_name,
                                     const TapeVerifyOptions& opt = {}) const;

 private:
  [[nodiscard]] Severity severity_of(std::string_view check) const;

  struct CheckSeverity {
    std::string_view check;
    Severity severity;
  };
  std::vector<CheckSeverity> severities_;
};

/// One-call form: run all checks at default severities.
[[nodiscard]] TapeVerifyReport verify_tape(const compile::CompiledNetlist& net,
                                           std::string design_name,
                                           const TapeVerifyOptions& opt = {});

/// Debug-path entry point (the static analogue of run_all_checked):
/// verify and throw std::logic_error carrying the full text report if any
/// error-severity finding is present.  Checked-replay harnesses call this
/// before spending cycles on a tape that is provably broken.
void verify_tape_or_throw(const compile::CompiledNetlist& net,
                          std::string design_name,
                          const TapeVerifyOptions& opt = {});

}  // namespace sysdp::analysis
