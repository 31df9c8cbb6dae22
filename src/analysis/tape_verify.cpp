#include "analysis/tape_verify.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "compile/live_range.hpp"
#include "obs/json_util.hpp"

namespace sysdp::analysis {

namespace {

using compile::CompiledNetlist;
using compile::Op;
using compile::OpKind;
using compile::Output;
using compile::SlotInit;
using compile::TapeSemiring;

/// Current-definition sentinels for the forward scan.  Op indices fit 32
/// bits: the CSR cycle index that bounds the tape is 32-bit, so no index
/// reaches them.
constexpr std::uint32_t kNoDef = 0xffffffffu;    ///< no definition reached yet
constexpr std::uint32_t kInitDef = 0xfffffffeu;  ///< defined by a SlotInit

/// Emit helper: one check's findings at one severity.
class Emitter {
 public:
  Emitter(std::string_view check, Severity severity, TapeVerifyReport& report)
      : check_(check), severity_(severity), report_(report) {}

  void operator()(const std::string& site, const std::string& storage,
                  std::string message, Severity severity) const {
    report_.diagnostics.push_back(
        finding(site, storage, std::move(message), severity));
  }
  void operator()(const std::string& site, const std::string& storage,
                  std::string message) const {
    (*this)(site, storage, std::move(message), severity_);
  }
  /// The finding operator() would emit, without emitting it.
  [[nodiscard]] Diagnostic finding(const std::string& site,
                                   const std::string& storage,
                                   std::string message,
                                   Severity severity) const {
    return Diagnostic{std::string(check_), severity, site, storage,
                      std::move(message)};
  }
  [[nodiscard]] Diagnostic finding(const std::string& site,
                                   const std::string& storage,
                                   std::string message) const {
    return finding(site, storage, std::move(message), severity_);
  }

 private:
  std::string_view check_;
  Severity severity_;
  TapeVerifyReport& report_;
};

std::string op_site(std::uint64_t i) { return "op#" + std::to_string(i); }

std::string op_site(std::uint64_t i, std::uint64_t level) {
  return "op#" + std::to_string(i) + "@L" + std::to_string(level);
}

std::string slot_name(sim::SlotId s) { return "slot" + std::to_string(s); }

// ---------------------------------------------------------------------------
// Abstract value domain for the value-range check: per slot, which of the
// three cost classes (finite, +inf sentinel, -inf sentinel) the replay can
// produce there, with an interval on the finite part.  "Unknown" (no class
// set) is used for slots poisoned by unrelated tape corruption so a broken
// def never cascades into spurious range findings.

constexpr std::uint8_t kPInf = 1;  ///< may be the +inf sentinel
constexpr std::uint8_t kNInf = 2;  ///< may be the -inf sentinel
constexpr std::uint8_t kFin = 4;   ///< may be finite, within [lo, hi]

/// An abstract value.  Without kFin, lo and hi are both 0, so the helpers
/// below can compute on them unconditionally and select the result.
struct AbsVal {
  Cost lo = 0;
  Cost hi = 0;
  std::uint8_t cls = 0;  ///< kPInf | kNInf | kFin bits; 0 is unknown
};

// The helpers below run a few times per op in the verifier's forward scan,
// on data no branch predictor learns: they select instead of branching,
// and are forced inline so the scan compiles to one loop body.

[[gnu::always_inline]] inline AbsVal abs_const(Cost v) {
  const bool fin = !is_inf(v) && !is_neg_inf(v);
  const auto cls = static_cast<std::uint8_t>(
      fin ? kFin : (is_inf(v) ? kPInf : kNInf));
  return {fin ? v : 0, fin ? v : 0, cls};
}

struct TimesResult {
  AbsVal val;
  /// True if two *finite* operands can sum into a sentinel band — the
  /// saturation sat_add() would silently apply to a real cost.
  bool clip = false;
};

/// Abstract semiring multiplication (saturating add).
[[gnu::always_inline]] inline TimesResult abs_times(const AbsVal& x,
                                                    const AbsVal& y) {
  TimesResult r;
  if (x.cls == 0 || y.cls == 0) return r;
  // Sentinel operands absorb (sat_add checks +inf first, so +inf wins mixed
  // cases; the union of both flags stays a sound over-approximation).
  // |finite| < kInfCost == max/4, so these int64 sums cannot overflow.
  const bool fin = (x.cls & y.cls & kFin) != 0;
  const Cost lo = x.lo + y.lo;
  const Cost hi = x.hi + y.hi;
  const bool pclip = fin && hi >= kInfCost;
  const bool nclip = fin && lo <= kNegInfCost;
  const Cost flo = std::max(lo, kNegInfCost + 1);
  const Cost fhi = std::min(hi, kInfCost - 1);
  const bool rfin = fin && flo <= fhi;
  r.clip = pclip || nclip;
  r.val.cls = static_cast<std::uint8_t>(
      ((x.cls | y.cls) & (kPInf | kNInf)) | (pclip ? kPInf : 0) |
      (nclip ? kNInf : 0) | (rfin ? kFin : 0));
  r.val.lo = rfin ? flo : 0;
  r.val.hi = rfin ? fhi : 0;
  return r;
}

/// Abstract semiring addition: the kernels' improves-select is exactly
/// MIN (MinPlus) / MAX (MaxPlus) of its two operands.
[[gnu::always_inline]] inline AbsVal abs_select(const AbsVal& x,
                                                const AbsVal& y,
                                                TapeSemiring sr) {
  if (x.cls == 0 || y.cls == 0) return AbsVal{};
  const std::uint8_t both = x.cls & y.cls;
  const std::uint8_t either = x.cls | y.cls;
  AbsVal r;
  // MIN is +inf only if both operands can be, -inf if either can be; MAX
  // the other way round.
  r.cls = sr == TapeSemiring::kMinPlus
              ? static_cast<std::uint8_t>((both & kPInf) | (either & kNInf))
              : static_cast<std::uint8_t>((either & kPInf) | (both & kNInf));
  // Finite part: interval hull of the finite parts that can be selected.
  r.cls = static_cast<std::uint8_t>(r.cls | (either & kFin));
  const bool xf = (x.cls & kFin) != 0;
  const bool yf = (y.cls & kFin) != 0;
  r.lo = xf ? (yf ? std::min(x.lo, y.lo) : x.lo) : y.lo;
  r.hi = xf ? (yf ? std::max(x.hi, y.hi) : x.hi) : y.hi;
  return r;
}

/// Forward-scan state of one slot, half a cache line: its abstract value,
/// its current definition (op index or a sentinel), the level that
/// definition is ready in (its level + 1; 0 for an init entry, so a read
/// can never be early for it), and the defining op's longest def-use
/// chain in ops (0 for an init entry).
struct SlotState {
  AbsVal aval;
  std::uint32_t def_op = kNoDef;
  std::uint32_t ready = 0;
  std::uint32_t depth = 0;
};

/// The definition each of an op's (up to three) operand reads resolved to
/// — an op index, or kInitDef / kNoDef for an init entry or an unresolved
/// read: the instance-resolved edges dead-op reachability walks, exact
/// even on compacted tapes where a slot name alone is ambiguous.
using ReadDefs = std::array<std::uint32_t, 3>;

/// Compaction-safety state of one slot group in the verifier's own
/// per-definition scan: the last level anything touched it, and whether
/// it has been defined yet.
struct GroupState {
  std::uint32_t last = 0;
  std::uint8_t defined = 0;
};

/// True if every slot `op` names lies in a file of `n` slots and its kind
/// is a known kernel: the per-op half of the tape-structure check, which
/// the forward scan applies as it goes.
[[gnu::always_inline]] inline bool op_in_range(const Op& op,
                                               std::uint32_t n) {
  if (op.dst >= n || op.a >= n || op.b >= n) return false;
  switch (op.kind) {
    case OpKind::kMac:
      return true;
    case OpKind::kFold:
      return op.c < n;
    case OpKind::kRelax:
      return static_cast<sim::SlotId>(op.dst + 1) < n &&
             static_cast<sim::SlotId>(op.a + 1) < n;
  }
  return false;
}

// ---------------------------------------------------------------------------

/// Structural validation; returns false if the tape is not safely
/// traversable (every later check indexes it freely).  Findings go to
/// `emit`, or are only counted when it is null; with `with_ops` false the
/// per-op checks (op_in_range) are left to the forward scan.
bool check_structure(const CompiledNetlist& net, const Emitter* emit,
                     bool with_ops) {
  std::size_t findings = 0;
  const auto note = [&](const std::string& site, const std::string& storage,
                        std::string message) {
    ++findings;
    if (emit != nullptr) (*emit)(site, storage, std::move(message));
  };

  if (static_cast<std::uint8_t>(net.semiring) > 1) {
    note("tape", "",
         "semiring tag " +
             std::to_string(static_cast<unsigned>(net.semiring)) +
             " names no known closed semiring");
  }

  // CSR cycle index.
  const std::uint64_t nops = net.ops.size();
  bool csr_ok = true;
  if (net.cycle_off.empty()) {
    if (nops != 0) {
      note("tape", "",
           "tape has " + std::to_string(nops) +
               " ops but no cycle index — the executor cannot schedule it");
      csr_ok = false;
    }
  } else {
    if (net.cycle_off.front() != 0) {
      note("tape", "",
           "cycle index does not start at op 0 (first offset " +
               std::to_string(net.cycle_off.front()) + ")");
      csr_ok = false;
    }
    for (std::size_t t = 0; csr_ok && t + 1 < net.cycle_off.size(); ++t) {
      if (net.cycle_off[t + 1] < net.cycle_off[t]) {
        note("tape", "",
             "cycle index is not monotone at level " + std::to_string(t) +
                 " (" + std::to_string(net.cycle_off[t]) + " -> " +
                 std::to_string(net.cycle_off[t + 1]) + ")");
        csr_ok = false;
      }
    }
    if (csr_ok && net.cycle_off.back() != nops) {
      note("tape", "",
           "cycle index covers " + std::to_string(net.cycle_off.back()) +
               " ops but the tape holds " + std::to_string(nops));
      csr_ok = false;
    }
  }

  // Slot references.
  const std::uint32_t n = net.num_slots;
  const auto check_slot = [&](std::uint64_t i, sim::SlotId s,
                              const char* role) {
    if (s < n) return;
    note(op_site(i), slot_name(s),
         std::string("operand ") + role + " names slot " + std::to_string(s) +
             " but the tape declares only " + std::to_string(n));
  };
  for (std::uint64_t i = 0; with_ops && i < nops; ++i) {
    const Op& op = net.ops[i];
    // op_in_range is the rule the forward scan rejects by; this loop only
    // says why an op breaks it, and never leaves a broken op unreported.
    if (op_in_range(op, n)) continue;
    const std::size_t described = findings;
    if (static_cast<std::uint8_t>(op.kind) > 2) {
      note(op_site(i), "",
           "op kind tag " + std::to_string(static_cast<unsigned>(op.kind)) +
               " names no known kernel");
      // dst/a/b mean "slot" under every known kind; still bound-check them.
    }
    check_slot(i, op.dst, "dst");
    check_slot(i, op.a, "a");
    check_slot(i, op.b, "b");
    if (op.kind == OpKind::kFold) check_slot(i, op.c, "c");
    if (op.kind == OpKind::kRelax) {
      check_slot(i, op.dst + 1, "dst+1");
      check_slot(i, op.a + 1, "a+1");
    }
    if (findings == described) {
      note(op_site(i), "",
           "op names a slot outside the file of " + std::to_string(n) +
               " slots or an unknown kernel");
    }
  }
  for (const SlotInit& si : net.init) {
    if (si.slot >= n) {
      note("init", slot_name(si.slot),
           "initial value targets slot " + std::to_string(si.slot) +
               " but the tape declares only " + std::to_string(n));
    }
  }
  for (const Output& o : net.outputs) {
    if (o.slot >= n) {
      note("output", o.tag + "[" + std::to_string(o.index) + "]",
           "declared output reads slot " + std::to_string(o.slot) +
               " but the tape declares only " + std::to_string(n));
    }
  }

  if (!net.expected.empty() && net.expected.size() != nops) {
    note("tape", "",
         "per-op oracle expectations hold " +
             std::to_string(net.expected.size()) + " values for " +
             std::to_string(nops) + " ops — checked replay would misalign");
  }

  return findings == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report rendering.

std::size_t TapeVerifyReport::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool TapeVerifyReport::clean(Severity fail_at) const noexcept {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= fail_at) return false;
  }
  return true;
}

std::string TapeVerifyReport::to_text() const {
  std::ostringstream out;
  out << design << ": " << errors() << " error(s), " << warnings()
      << " warning(s), " << count(Severity::kNote) << " note(s)\n";
  out << "  tape: " << stats.ops << " ops / " << stats.slots << " slots / "
      << stats.levels << " levels (" << stats.nonempty_levels
      << " non-empty), depth " << stats.dependence_depth << ", "
      << (stats.compacted ? "compacted" : "ssa")
      << (stats.parameterised ? ", parameterised" : "") << ", max |finite| "
      << stats.max_abs_finite << (stats.int32_safe ? " (int32-safe)" : "")
      << "\n";
  if (stats.provenance_lanes > 0) {
    out << "  provenance: " << stats.provenance_lanes << " lanes, "
        << stats.provenance_binds << " binds, " << stats.ops_attributed
        << " of " << stats.ops << " ops attributed\n";
  }
  for (const Diagnostic& d : diagnostics) {
    out << "  [" << to_string(d.severity) << "] " << d.check << " @ "
        << d.module;
    if (!d.storage.empty()) out << " '" << d.storage << "'";
    out << ": " << d.message << "\n";
  }
  return out.str();
}

std::string TapeVerifyReport::to_json() const {
  std::ostringstream out;
  out << "{\"design\": \"" << obs::json_escape(design) << "\", \"tape\": {"
      << "\"ops\": " << stats.ops << ", \"slots\": " << stats.slots
      << ", \"levels\": " << stats.levels
      << ", \"nonempty_levels\": " << stats.nonempty_levels
      << ", \"outputs\": " << stats.outputs << ", \"compacted\": "
      << (stats.compacted ? "true" : "false") << ", \"parameterised\": "
      << (stats.parameterised ? "true" : "false")
      << ", \"in_level_chains\": " << stats.in_level_chains
      << ", \"dependence_depth\": " << stats.dependence_depth
      << ", \"transport_slack_ops\": " << stats.transport_slack_ops
      << ", \"max_transport_slack\": " << stats.max_transport_slack
      << ", \"dead_ops\": " << stats.dead_ops
      << ", \"max_abs_finite\": " << stats.max_abs_finite
      << ", \"int32_safe\": " << (stats.int32_safe ? "true" : "false")
      << ", \"provenance_lanes\": " << stats.provenance_lanes
      << ", \"provenance_binds\": " << stats.provenance_binds
      << ", \"ops_attributed\": " << stats.ops_attributed
      << "}, \"counts\": {\"errors\": " << errors()
      << ", \"warnings\": " << warnings()
      << ", \"notes\": " << count(Severity::kNote) << "}, \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out << ", ";
    out << "{\"check\": \"" << obs::json_escape(d.check)
        << "\", \"severity\": \"" << to_string(d.severity)
        << "\", \"site\": \"" << obs::json_escape(d.module)
        << "\", \"storage\": \"" << obs::json_escape(d.storage)
        << "\", \"message\": \"" << obs::json_escape(d.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Verifier.

TapeVerifier::TapeVerifier()
    : severities_{{kTapeStructure, Severity::kError},
                  {kDefBeforeUse, Severity::kError},
                  {kLevelSchedule, Severity::kError},
                  {kSingleAssignment, Severity::kError},
                  {kOutputReachability, Severity::kError},
                  {kValueRange, Severity::kError},
                  {kCompactionSafety, Severity::kError},
                  {kBindPlane, Severity::kError},
                  {kProvenance, Severity::kError}} {}

void TapeVerifier::set_severity(std::string_view check, Severity s) {
  for (CheckSeverity& cs : severities_) {
    if (cs.check == check) {
      cs.severity = s;
      return;
    }
  }
  std::string known;
  for (const CheckSeverity& cs : severities_) {
    if (!known.empty()) known += ", ";
    known += cs.check;
  }
  throw std::invalid_argument("TapeVerifier::set_severity: unknown check '" +
                              std::string(check) + "' (known checks: " +
                              known + ")");
}

Severity TapeVerifier::severity_of(std::string_view check) const {
  for (const CheckSeverity& cs : severities_) {
    if (cs.check == check) return cs.severity;
  }
  return Severity::kError;
}

TapeVerifyReport TapeVerifier::run(const CompiledNetlist& net,
                                   std::string design_name,
                                   const TapeVerifyOptions& opt) const {
  TapeVerifyReport report;
  report.design = std::move(design_name);
  const auto emitter = [&](std::string_view check) {
    return Emitter(check, severity_of(check), report);
  };

  TapeVerifyStats& st = report.stats;
  st.ops = net.num_ops();
  st.slots = net.num_slots;
  st.levels = net.cycles();
  st.outputs = net.outputs.size();
  st.compacted = net.compacted();
  st.parameterised = net.parameterised;

  // Gate: nothing below may index a tape whose structure is corrupt.  The
  // tape-wide facts are checked here, each op's slots and kind by the
  // forward scan before it touches them; either way a corrupt tape is
  // reported by the full structure check alone.
  const Emitter emit_struct = emitter(kTapeStructure);
  const auto reject_structure = [&] {
    report.diagnostics.clear();
    (void)check_structure(net, &emit_struct, true);
    return report;
  };
  if (!check_structure(net, nullptr, false)) return reject_structure();

  // --- bind-plane: parameter-plane shape and oracle-binding agreement.
  {
    const Emitter emit = emitter(kBindPlane);
    if (!net.parameterised) {
      if (!net.params.empty()) {
        emit("tape", "",
             "tape is not parameterised but carries a parameter plane of " +
                 std::to_string(net.params.size()) +
                 " entries — executors would disagree on which weights rule");
      }
      if (!opt.bound_weights.empty()) {
        emit("tape", "",
             "a rebinding table of " +
                 std::to_string(opt.bound_weights.size()) +
                 " weights was offered for verification, but the tape is "
                 "not parameterised — nothing can bind it");
      }
    } else {
      for (std::uint64_t i = 0; i < net.ops.size(); ++i) {
        const Op& op = net.ops[i];
        if (op.param >= net.params.size()) {
          emit(op_site(i), "",
               "parameter index " + std::to_string(op.param) +
                   " is outside the plane of " +
                   std::to_string(net.params.size()) + " entries");
        } else if (net.params[op.param] != op.w) {
          emit(op_site(i), "",
               "baked immediate " + cost_to_string(op.w) +
                   " diverges from the oracle binding params[" +
                   std::to_string(op.param) + "] = " +
                   cost_to_string(net.params[op.param]) +
                   " — the oracle-bound fast path and bound replay would "
                   "compute different tapes");
        }
      }
      if (!opt.bound_weights.empty() &&
          opt.bound_weights.size() != net.params.size()) {
        emit("tape", "",
             "rebinding table holds " +
                 std::to_string(opt.bound_weights.size()) +
                 " weights for a plane of " +
                 std::to_string(net.params.size()) + " parameters");
      }
    }
  }

  // Weights the value range is proven under.  An op whose parameter lies
  // outside the plane (a bind-plane finding above) keeps its baked weight.
  const std::vector<Cost>* const bound =
      net.parameterised && !opt.bound_weights.empty() &&
              opt.bound_weights.size() == net.params.size()
          ? &opt.bound_weights
          : nullptr;

  const std::uint32_t n = net.num_slots;
  const std::uint64_t nops = net.ops.size();
  const std::uint64_t cycles = st.levels;
  const bool compacted = st.compacted;
  const TapeSemiring sr = net.semiring;

  const Emitter emit_dbu = emitter(kDefBeforeUse);
  const Emitter emit_sched = emitter(kLevelSchedule);
  const Emitter emit_ssa = emitter(kSingleAssignment);
  const Emitter emit_comp = emitter(kCompactionSafety);
  const Emitter emit_val = emitter(kValueRange);
  const Emitter emit_reach = emitter(kOutputReachability);

  // Forward-scan state: one record per slot, the writes past the first of
  // each slot written more than once, and the resolved reads of each op
  // for reachability.
  std::vector<SlotState> slot(n);
  std::unordered_map<sim::SlotId, std::uint32_t> rewrites;
  const auto rdef = std::make_unique_for_overwrite<ReadDefs[]>(nops);

  // Compaction-safety state: the group structure compact_slots() uses,
  // the last touches its liveness rule computes (compile/live_range.hpp,
  // applied op by op in this scan), and this scan's own per-definition
  // last touches to cross-check against them.
  compile::TapeLiveness lv;
  std::vector<GroupState> group;
  if (compacted) {
    lv = compile::group_slots(net);
    group.resize(n);
  }

  // The scan's counters live here and reach the report at the end.
  std::uint64_t nonempty_levels = 0;
  std::uint64_t in_level_chains = 0;
  std::uint64_t dependence_depth = 0;
  std::uint64_t transport_slack_ops = 0;
  std::uint64_t max_transport_slack = 0;
  Cost max_abs_finite = 0;
  bool clip_found = false;

  for (const SlotInit& si : net.init) {
    SlotState& ss = slot[si.slot];
    if (ss.def_op != kNoDef) {
      ++rewrites[si.slot];
      emit_ssa("init", slot_name(si.slot),
               "slot is initialised more than once — the surviving value "
               "depends on init order");
    }
    ss.def_op = kInitDef;
    ss.ready = 0;
    ss.depth = 0;
    ss.aval = abs_const(si.value);
    if (si.value > max_abs_finite && !is_inf(si.value)) {
      max_abs_finite = si.value;
    }
    if (-si.value > max_abs_finite && !is_neg_inf(si.value)) {
      max_abs_finite = -si.value;
    }
    if (compacted) group[lv.base[si.slot]].defined = 1;
  }

  // The scan's lambdas run per operand; forced inline, they keep the
  // scan's state in registers instead of behind a closure pointer.
  const auto note_fin = [&max_abs_finite](const AbsVal& v)
                            __attribute__((always_inline)) {
    // A value without kFin has lo == hi == 0, which cannot raise the
    // maximum.
    max_abs_finite = std::max(max_abs_finite, v.hi);
    max_abs_finite = std::max(max_abs_finite, v.lo < 0 ? -v.lo : v.lo);
  };

  // Provenance attribution, counted as the scan passes each op when the
  // op -> lane table runs parallel to the tape; ops attributed to a lane
  // outside the table are reported with the provenance findings.
  const compile::Provenance& prov = net.provenance;
  const auto nlanes = static_cast<std::uint32_t>(prov.lanes.size());
  const bool attribute = prov.op_lane.size() == nops;
  std::uint64_t ops_attributed = 0;
  std::vector<std::uint32_t> stray_lanes;

  // A read of a slot with no definition yet is either dangling (nothing
  // ever writes the slot: def-before-use) or early (a later op does:
  // level-schedule).  Which one is known once the scan is over, so the
  // finding is held in its place in the report until then.
  struct Unresolved {
    std::size_t diagnostic;
    std::uint64_t op;
    std::uint64_t level;
    sim::SlotId slot;
    const char* role;
  };
  std::vector<Unresolved> unresolved;

  for (std::uint64_t t = 0; t < cycles; ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    if (lo < hi) ++nonempty_levels;
    const auto level = static_cast<std::uint32_t>(t);
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Op& op = net.ops[i];
      if (!op_in_range(op, n)) return reject_structure();
      // The site string is built only for a finding, never per op.
      const auto site = [i, t] { return op_site(i, t); };
      if (attribute && prov.op_lane[i] != compile::Provenance::kNone) {
        ++ops_attributed;
        if (prov.op_lane[i] >= nlanes) stray_lanes.push_back(i);
      }

      // -- reads: resolve each operand against the schedule so far.
      std::uint64_t min_level = 0;  // dependence-minimal level for this op
      std::uint32_t d = 0;          // deepest operand chain
      ReadDefs reads{kNoDef, kNoDef, kNoDef};
      const auto read = [&](sim::SlotId s, std::size_t rix, const char* role)
                            __attribute__((always_inline)) {
        if (compacted) {
          // Mirror compaction's liveness rule: reads touch the group even
          // when they fail to resolve.  The scan runs in level order, so
          // the latest touch is this one.
          group[lv.base[s]].last = level;
        }
        const SlotState& ss = slot[s];
        if (ss.def_op == kNoDef) {
          unresolved.push_back({report.diagnostics.size(), i, t, s, role});
          report.diagnostics.emplace_back();
          return;
        }
        reads[rix] = ss.def_op;
        d = std::max(d, ss.depth);
        // A definition is ready in its level + 1, and every definition so
        // far lies in this level or an earlier one.  One ready in the next
        // level is a same-level chain: legal because the oracle executed
        // the defining op earlier in this very level (forward scan
        // guarantees program order), and the engine replays every level in
        // tape order; it pins this op to this level.
        if (ss.ready > level) ++in_level_chains;
        min_level = std::max<std::uint64_t>(min_level,
                                            std::min(ss.ready, level));
      };

      switch (op.kind) {
        case OpKind::kMac:
          read(op.a, 0, "a");
          read(op.b, 1, "b");
          break;
        case OpKind::kFold:
          read(op.a, 0, "a");
          read(op.b, 1, "b");
          read(op.c, 2, "c");
          break;
        case OpKind::kRelax:
          read(op.a, 0, "a");
          read(op.a + 1, 1, "a+1");
          read(op.b, 2, "b");
          if (slot[op.a].def_op != kNoDef && slot[op.a + 1].def_op != kNoDef &&
              slot[op.a].def_op != slot[op.a + 1].def_op) {
            emit_dbu(site(), slot_name(op.a),
                     "pair operand halves " + slot_name(op.a) + "/" +
                         slot_name(op.a + 1) +
                         " come from different definitions — not a coherent "
                         "(value, station) pair");
          }
          break;
      }
      rdef[i] = reads;

      // -- dependence depth and transport slack.
      const std::uint32_t depth = d + 1;
      dependence_depth = std::max<std::uint64_t>(dependence_depth, depth);
      if (t > min_level) {
        const std::uint64_t slack = t - min_level;
        ++transport_slack_ops;
        max_transport_slack = std::max(max_transport_slack, slack);
        if (opt.max_transport_slack >= 0 &&
            slack > static_cast<std::uint64_t>(opt.max_transport_slack)) {
          emit_sched(site(), slot_name(op.dst),
                     "scheduled " + std::to_string(slack) +
                         " level(s) after its dependence-minimal level " +
                         std::to_string(min_level) +
                         " — exceeds the configured transport-slack bound "
                         "of " + std::to_string(opt.max_transport_slack));
        }
      }

      // -- value-range: abstract-evaluate the kernel.
      const Cost wc = bound != nullptr && op.param < bound->size()
                          ? (*bound)[op.param]
                          : op.w;
      const AbsVal w = abs_const(wc);
      AbsVal out_dst;
      AbsVal out_pair;
      bool clip = false;
      switch (op.kind) {
        case OpKind::kMac: {
          const TimesResult wb = abs_times(w, slot[op.b].aval);
          clip = wb.clip;
          note_fin(wb.val);
          out_dst = abs_select(slot[op.a].aval, wb.val, sr);
          break;
        }
        case OpKind::kFold: {
          const TimesResult bc = abs_times(slot[op.b].aval, slot[op.c].aval);
          const TimesResult cand = abs_times(bc.val, w);
          clip = bc.clip || cand.clip;
          note_fin(bc.val);
          note_fin(cand.val);
          out_dst = abs_select(slot[op.a].aval, cand.val, sr);
          break;
        }
        case OpKind::kRelax: {
          const TimesResult cand = abs_times(slot[op.b].aval, w);
          clip = cand.clip;
          note_fin(cand.val);
          out_dst = abs_select(slot[op.a].aval, cand.val, sr);
          // dst+1 takes either the station immediate or the old index half.
          out_pair = abs_select(abs_const(static_cast<Cost>(op.c)),
                                slot[op.a + 1].aval, sr);
          note_fin(out_pair);
          break;
        }
      }
      // out_dst needs no note of its own: its finite part is the hull of
      // operand a's, noted when a was written, and the candidate's, noted
      // above.
      if (clip) {
        clip_found = true;
        emit_val(site(), slot_name(op.dst),
                 "two finite operands can sum into the infinity sentinel "
                 "band — sat_add() would silently clamp a real cost "
                 "(weight " + cost_to_string(wc) + ")");
      }

      // -- writes.
      if (compacted) {
        // The op's write is one definition event: check the written group
        // against the state *before* this op's writes, then commit.
        GroupState& g = group[lv.base[op.dst]];
        if (g.defined != 0 && g.last >= level) {
          emit_comp(site(), slot_name(op.dst),
                    "redefines a slot whose previous value is still live "
                    "(last touched at level " + std::to_string(g.last) +
                        ", redefined at level " + std::to_string(t) +
                        ") — overlapping live ranges share a slot, "
                        "compaction is unsound");
        }
        g.defined = 1;
        g.last = level;
        compile::touch_groups(lv, op, level);
      }
      const auto write = [&](sim::SlotId s, const AbsVal& v)
                             __attribute__((always_inline)) {
        if (!compacted && slot[s].def_op != kNoDef) {
          emit_ssa(site(), slot_name(s),
                   "slot is written more than once on an uncompacted tape — "
                   "single assignment violated (" +
                       std::to_string(2 + rewrites[s]++) +
                       " writes so far)");
        }
        slot[s] = {v, i, level + 1, depth};
      };
      write(op.dst, out_dst);
      if (op.kind == OpKind::kRelax) write(op.dst + 1, out_pair);
    }
  }

  // --- def-before-use / level-schedule: settle the held unresolved reads.
  for (const Unresolved& u : unresolved) {
    const std::string site = op_site(u.op, u.level);
    report.diagnostics[u.diagnostic] =
        slot[u.slot].def_op == kNoDef
            ? emit_dbu.finding(site, slot_name(u.slot),
                               std::string("operand ") + u.role +
                                   " reads a slot nothing ever writes — "
                                   "dangling reference")
            : emit_sched.finding(
                  site, slot_name(u.slot),
                  std::string("operand ") + u.role +
                      " is read before its first definition in the "
                      "schedule — replay would see an uninitialised slot");
  }

  // --- compaction-safety cross-check: this pass's last-touch aggregation
  // must agree with compile/live_range.hpp, the analysis the allocator
  // actually ran.  Pinned (output) groups are excluded — the liveness side
  // deliberately collapses them to a sentinel.
  if (compacted) {
    compile::pin_outputs(lv, net);
    for (std::uint32_t g = 0; g < n; ++g) {
      if (lv.base[g] != g || lv.last[g] == compile::TapeLiveness::kPinned) {
        continue;
      }
      if (group[g].last != lv.last[g]) {
        emit_comp("tape", slot_name(g),
                  "verifier liveness disagrees with compile/live_range.hpp "
                  "for this slot group (verifier last touch " +
                      std::to_string(group[g].last) + ", compaction's " +
                      std::to_string(lv.last[g]) +
                      ") — the allocator and its proof have drifted apart");
      }
    }
  }

  // --- output-reachability: every output written, every op feeding one.
  std::uint64_t dead_ops = 0;
  {
    std::vector<std::uint8_t> live(nops, 0);
    for (const Output& o : net.outputs) {
      const std::uint32_t d = slot[o.slot].def_op;  // final definition
      if (d == kNoDef) {
        emit_reach("output", o.tag + "[" + std::to_string(o.index) + "]",
                   "declared output reads " + slot_name(o.slot) +
                       ", which nothing ever writes — verify_outputs() "
                       "would compare garbage");
        continue;
      }
      if (d != kInitDef) live[d] = 1;
    }
    // Every resolved read names an earlier op (the scan records a read
    // before the op's own writes), so one backward sweep closes the live
    // set: an op is final once every later op has passed on its reads.
    for (std::uint64_t i = nops; i-- > 0;) {
      if (live[i] == 0) {
        ++dead_ops;
        continue;
      }
      for (const std::uint32_t d : rdef[i]) {
        if (d < kInitDef) live[d] = 1;
      }
    }
    for (std::uint64_t i = 0; dead_ops > 0 && i < nops; ++i) {
      if (live[i] != 0) continue;
      emit_reach(op_site(i, net.level_of_op(i)), slot_name(net.ops[i].dst),
                 "no declared output can observe this op's value through "
                 "any def-use chain — dead work on the tape",
                 Severity::kWarning);
    }
  }

  // --- provenance: the slot→port table, when present, must agree with
  // the tape it annotates.  Runs after the forward scan so each slot's
  // definition level is available for the sampling-order proof.
  {
    const Emitter emit = emitter(kProvenance);
    st.provenance_lanes = prov.lanes.size();
    st.provenance_binds = prov.binds.size();

    if (!prov.op_lane.empty() && !attribute) {
      emit("tape", "",
           "op→lane attribution holds " +
               std::to_string(prov.op_lane.size()) + " entries for a tape of " +
               std::to_string(nops) +
               " ops — neither absent nor parallel to the tape");
    } else {
      for (const std::uint32_t i : stray_lanes) {
        emit(op_site(i), "",
             "attributed to lane " + std::to_string(prov.op_lane[i]) +
                 ", outside the table of " + std::to_string(nlanes) +
                 " lanes");
      }
      st.ops_attributed = ops_attributed;
    }

    for (std::uint32_t l = 0; l < nlanes; ++l) {
      const compile::ProvenanceLane& lane = prov.lanes[l];
      const bool module_ok = lane.module_id < prov.modules.size();
      if (lane.module_id != compile::Provenance::kNone && !module_ok) {
        emit("lane#" + std::to_string(l), lane.label,
             "module id " + std::to_string(lane.module_id) +
                 " is outside the table of " +
                 std::to_string(prov.modules.size()) + " modules");
      } else if (lane.named && !module_ok) {
        emit("lane#" + std::to_string(l), lane.label,
             "named lane carries no module — the waveform layer could not "
             "scope its signal");
      }
    }

    std::uint32_t prev_stamp = 0;
    for (std::size_t b = 0; b < prov.binds.size(); ++b) {
      const compile::ProvenanceBind& bind = prov.binds[b];
      const auto site = [b] { return "bind#" + std::to_string(b); };
      if (bind.stamp < prev_stamp) {
        emit(site(), "",
             "stamp " + std::to_string(bind.stamp) +
                 " follows stamp " + std::to_string(prev_stamp) +
                 " — bind events are not sorted, the replay waveform "
                 "writer would emit time running backwards");
      }
      prev_stamp = std::max(prev_stamp, bind.stamp);
      if (bind.stamp > cycles) {
        emit(site(), "",
             "stamp " + std::to_string(bind.stamp) +
                 " lies past the tape's " + std::to_string(cycles) +
                 " replayed cycles — no level ever samples it");
      }
      if (bind.lane >= nlanes) {
        emit(site(), "",
             "binds lane " + std::to_string(bind.lane) +
                 ", outside the table of " + std::to_string(nlanes) +
                 " lanes");
        continue;
      }
      if (bind.slot >= n) {
        emit(site(), prov.lanes[bind.lane].label,
             "binds " + slot_name(bind.slot) + ", outside the file of " +
                 std::to_string(n) + " slots");
        continue;
      }
      if (!compacted) {
        // SSA: the slot has exactly one definition, so "sampled at the end
        // of level stamp-1" is provable per bind.  (Compacted tapes reuse
        // slot names; the lifetime extension that keeps these samples
        // valid is compaction-safety's cross-checked territory.)
        const SlotState& ss = slot[bind.slot];
        if (ss.def_op == kNoDef) {
          emit(site(), prov.lanes[bind.lane].label,
               "binds " + slot_name(bind.slot) +
                   ", which nothing ever writes — the waveform would "
                   "sample garbage");
        } else if (ss.ready > bind.stamp) {
          emit(site(), prov.lanes[bind.lane].label,
               "stamp " + std::to_string(bind.stamp) + " samples " +
                   slot_name(bind.slot) + " defined at level " +
                   std::to_string(ss.ready - 1) +
                   " — the register would show a value before the tape "
                   "computes it");
        }
      }
    }
  }

  st.nonempty_levels = nonempty_levels;
  st.in_level_chains = in_level_chains;
  st.dependence_depth = dependence_depth;
  st.transport_slack_ops = transport_slack_ops;
  st.max_transport_slack = max_transport_slack;
  st.dead_ops = dead_ops;
  st.max_abs_finite = max_abs_finite;

  // --- value-range and schedule summaries.
  st.int32_safe = !clip_found && max_abs_finite <= opt.value_bound;
  if (!clip_found && max_abs_finite > opt.value_bound) {
    emit_val("tape", "",
             "reachable finite values span up to " +
                 std::to_string(max_abs_finite) +
                 " — exceeds the configured bound of " +
                 std::to_string(opt.value_bound) +
                 "; narrow-lane kernels would need widening",
             Severity::kWarning);
  }
  if (transport_slack_ops > 0) {
    emit_sched("tape", "",
               std::to_string(transport_slack_ops) + " of " +
                   std::to_string(nops) +
                   " ops are scheduled past their dependence-minimal level "
                   "(max slack " + std::to_string(max_transport_slack) +
                   ") — the physical array's transport latency, erased by "
                   "copy elision; replay stays race-free",
               Severity::kNote);
  }

  return report;
}

TapeVerifyReport verify_tape(const CompiledNetlist& net,
                             std::string design_name,
                             const TapeVerifyOptions& opt) {
  return TapeVerifier().run(net, std::move(design_name), opt);
}

void verify_tape_or_throw(const CompiledNetlist& net, std::string design_name,
                          const TapeVerifyOptions& opt) {
  TapeVerifyReport report =
      verify_tape(net, std::move(design_name), opt);
  if (!report.clean(Severity::kError)) {
    throw std::logic_error("tape verification failed:\n" + report.to_text());
  }
}

}  // namespace sysdp::analysis
