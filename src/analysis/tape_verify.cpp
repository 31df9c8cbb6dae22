#include "analysis/tape_verify.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <sstream>
#include <stdexcept>
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

/// Current-definition sentinels for the forward scan.
constexpr std::int64_t kInitDef = -1;  ///< defined by a SlotInit entry
constexpr std::int64_t kNoDef = -2;    ///< no definition reached yet

/// Emit helper: one check's findings at one severity.
class Emitter {
 public:
  Emitter(std::string_view check, Severity severity, TapeVerifyReport& report)
      : check_(check), severity_(severity), report_(report) {}

  void operator()(const std::string& site, const std::string& storage,
                  std::string message, Severity severity) const {
    report_.diagnostics.push_back(Diagnostic{
        std::string(check_), severity, site, storage, std::move(message)});
  }
  void operator()(const std::string& site, const std::string& storage,
                  std::string message) const {
    (*this)(site, storage, std::move(message), severity_);
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

struct AbsVal {
  bool may_pinf = false;
  bool may_ninf = false;
  bool has_fin = false;
  Cost lo = 0;
  Cost hi = 0;

  [[nodiscard]] bool known() const noexcept {
    return may_pinf || may_ninf || has_fin;
  }
};

AbsVal abs_const(Cost v) {
  AbsVal r;
  if (is_inf(v)) {
    r.may_pinf = true;
  } else if (is_neg_inf(v)) {
    r.may_ninf = true;
  } else {
    r.has_fin = true;
    r.lo = v;
    r.hi = v;
  }
  return r;
}

struct TimesResult {
  AbsVal val;
  /// True if two *finite* operands can sum into a sentinel band — the
  /// saturation sat_add() would silently apply to a real cost.
  bool clip = false;
};

/// Abstract semiring multiplication (saturating add).
TimesResult abs_times(const AbsVal& x, const AbsVal& y) {
  TimesResult r;
  if (!x.known() || !y.known()) return r;
  // Sentinel operands absorb (sat_add checks +inf first, so +inf wins mixed
  // cases; the union of both flags stays a sound over-approximation).
  r.val.may_pinf = x.may_pinf || y.may_pinf;
  r.val.may_ninf = x.may_ninf || y.may_ninf;
  if (x.has_fin && y.has_fin) {
    // |finite| < kInfCost == max/4, so these int64 sums cannot overflow.
    const Cost lo = x.lo + y.lo;
    const Cost hi = x.hi + y.hi;
    if (hi >= kInfCost || lo <= kNegInfCost) {
      r.clip = true;
      if (hi >= kInfCost) r.val.may_pinf = true;
      if (lo <= kNegInfCost) r.val.may_ninf = true;
    }
    const Cost flo = std::max(lo, kNegInfCost + 1);
    const Cost fhi = std::min(hi, kInfCost - 1);
    if (flo <= fhi) {
      r.val.has_fin = true;
      r.val.lo = flo;
      r.val.hi = fhi;
    }
  }
  return r;
}

/// Abstract semiring addition: the kernels' improves-select is exactly
/// MIN (MinPlus) / MAX (MaxPlus) of its two operands.
AbsVal abs_select(const AbsVal& x, const AbsVal& y, TapeSemiring sr) {
  if (!x.known() || !y.known()) return AbsVal{};
  AbsVal r;
  if (sr == TapeSemiring::kMinPlus) {
    r.may_pinf = x.may_pinf && y.may_pinf;  // min is +inf only if both can be
    r.may_ninf = x.may_ninf || y.may_ninf;
  } else {
    r.may_pinf = x.may_pinf || y.may_pinf;
    r.may_ninf = x.may_ninf && y.may_ninf;
  }
  // Finite part: interval hull of the finite parts that can be selected.
  r.has_fin = x.has_fin || y.has_fin;
  if (x.has_fin && y.has_fin) {
    r.lo = std::min(x.lo, y.lo);
    r.hi = std::max(x.hi, y.hi);
  } else if (x.has_fin) {
    r.lo = x.lo;
    r.hi = x.hi;
  } else if (y.has_fin) {
    r.lo = y.lo;
    r.hi = y.hi;
  }
  return r;
}

/// Forward-scan state of one slot: its current definition (op index or a
/// sentinel) and level, how often it was written, whether anything writes
/// it at all, and its abstract value.
struct SlotState {
  std::int64_t def_op = kNoDef;
  std::int64_t def_level = kNoDef;
  std::uint32_t writes = 0;
  bool has_def = false;
  AbsVal aval;
};

/// Forward-scan state of one op: its longest def-use chain, in ops, and
/// the op each of its (up to three) operand reads resolved to, or kNoOp
/// for an init entry or an unresolved read — the instance-resolved edges
/// dead-op reachability walks, exact even on compacted tapes where a slot
/// name alone is ambiguous.  Op indices fit 32 bits: the CSR cycle index
/// that bounds the tape is 32-bit, so no index reaches kNoOp.
struct OpState {
  static constexpr std::uint32_t kNoOp = 0xffffffffu;
  std::uint32_t depth = 0;
  std::array<std::uint32_t, 3> rdef{kNoOp, kNoOp, kNoOp};
};

// ---------------------------------------------------------------------------

/// Structural validation; returns false if the tape is not safely
/// traversable (every later check indexes it freely).
bool check_structure(const CompiledNetlist& net, const Emitter& emit) {
  std::size_t findings = 0;
  const auto note = [&](const std::string& site, const std::string& storage,
                        std::string message) {
    ++findings;
    emit(site, storage, std::move(message));
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
  for (std::uint64_t i = 0; i < nops; ++i) {
    const Op& op = net.ops[i];
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

  // Gate: nothing below may index a tape whose structure is corrupt.
  if (!check_structure(net, emitter(kTapeStructure))) return report;

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

  const bool rebound = net.parameterised &&
                       opt.bound_weights.size() == net.params.size() &&
                       !opt.bound_weights.empty();

  const std::uint32_t n = net.num_slots;
  const std::uint64_t nops = net.ops.size();
  const std::uint64_t cycles = st.levels;

  const Emitter emit_dbu = emitter(kDefBeforeUse);
  const Emitter emit_sched = emitter(kLevelSchedule);
  const Emitter emit_ssa = emitter(kSingleAssignment);
  const Emitter emit_comp = emitter(kCompactionSafety);
  const Emitter emit_val = emitter(kValueRange);
  const Emitter emit_reach = emitter(kOutputReachability);

  // Forward-scan state, one record per slot and one per op, so an
  // operand's lookups and an op's bookkeeping each touch one place.
  std::vector<SlotState> slot(n);
  std::vector<OpState> opst(nops);

  // Which slots are written *anywhere* — separates dangling references
  // (def-before-use) from defined-too-late ones (level-schedule).
  for (const SlotInit& si : net.init) slot[si.slot].has_def = true;
  for (const Op& op : net.ops) {
    slot[op.dst].has_def = true;
    if (op.kind == OpKind::kRelax) slot[op.dst + 1].has_def = true;
  }

  // Compaction-safety state: group structure from the very analysis that
  // drives compact_slots(), plus this pass's own last-touch aggregation to
  // cross-check against it.
  compile::TapeLiveness lv;
  std::vector<std::uint32_t> glast;
  std::vector<std::uint8_t> gdef;
  if (st.compacted) {
    lv = compile::compute_liveness(net);
    glast.assign(n, 0);
    gdef.assign(n, 0);
  }

  for (const SlotInit& si : net.init) {
    SlotState& ss = slot[si.slot];
    ++ss.writes;
    if (ss.writes > 1) {
      emit_ssa("init", slot_name(si.slot),
               "slot is initialised more than once — the surviving value "
               "depends on init order");
    }
    ss.def_op = kInitDef;
    ss.def_level = -1;
    ss.aval = abs_const(si.value);
    if (si.value > st.max_abs_finite && !is_inf(si.value)) {
      st.max_abs_finite = si.value;
    }
    if (-si.value > st.max_abs_finite && !is_neg_inf(si.value)) {
      st.max_abs_finite = -si.value;
    }
    if (st.compacted) gdef[lv.base[si.slot]] = 1;
  }

  const auto note_fin = [&](const AbsVal& v) {
    if (!v.has_fin) return;
    st.max_abs_finite = std::max(st.max_abs_finite, v.hi);
    st.max_abs_finite = std::max(st.max_abs_finite, v.lo < 0 ? -v.lo : v.lo);
  };

  bool clip_found = false;

  for (std::uint64_t t = 0; t < cycles; ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    if (lo < hi) ++st.nonempty_levels;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Op& op = net.ops[i];
      // The site string is built only for a finding, never per op.
      const auto site = [i, t] { return op_site(i, t); };

      // -- reads: resolve each operand against the schedule so far.
      std::uint64_t min_level = 0;  // dependence-minimal level for this op
      std::uint32_t d = 0;          // deepest operand chain
      const auto read = [&](sim::SlotId s, std::size_t rix,
                            const char* role) {
        if (st.compacted) {
          // Mirror compute_liveness() exactly: reads touch the group even
          // when they fail to resolve.
          const std::uint32_t g = lv.base[s];
          glast[g] = std::max(glast[g], static_cast<std::uint32_t>(t));
        }
        const SlotState& ss = slot[s];
        if (!ss.has_def) {
          emit_dbu(site(), slot_name(s),
                   std::string("operand ") + role + " reads a slot nothing "
                       "ever writes — dangling reference");
          return;
        }
        if (ss.def_op == kNoDef) {
          emit_sched(site(), slot_name(s),
                     std::string("operand ") + role + " is read before its "
                         "first definition in the schedule — replay would "
                         "see an uninitialised slot");
          return;
        }
        if (ss.def_op >= 0) {
          const auto def = static_cast<std::uint32_t>(ss.def_op);
          opst[i].rdef[rix] = def;
          d = std::max(d, opst[def].depth);
        }
        if (ss.def_level == static_cast<std::int64_t>(t)) {
          // Same-level chain: legal because the oracle executed the defining
          // op earlier in this very level (forward scan guarantees program
          // order), and the engine replays every level in tape order.
          ++st.in_level_chains;
          min_level = std::max(min_level, t);
        } else {
          min_level =
              std::max(min_level, static_cast<std::uint64_t>(ss.def_level + 1));
        }
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

      // -- dependence depth and transport slack.
      opst[i].depth = d + 1;
      st.dependence_depth = std::max<std::uint64_t>(st.dependence_depth,
                                                    opst[i].depth);
      if (t > min_level) {
        const std::uint64_t slack = t - min_level;
        ++st.transport_slack_ops;
        st.max_transport_slack = std::max(st.max_transport_slack, slack);
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
      const Cost wc = rebound ? opt.bound_weights[op.param] : op.w;
      const AbsVal w = abs_const(wc);
      AbsVal out_dst;
      AbsVal out_pair;
      bool clip = false;
      switch (op.kind) {
        case OpKind::kMac: {
          const TimesResult wb = abs_times(w, slot[op.b].aval);
          clip = wb.clip;
          note_fin(wb.val);
          out_dst = abs_select(slot[op.a].aval, wb.val, net.semiring);
          break;
        }
        case OpKind::kFold: {
          const TimesResult bc = abs_times(slot[op.b].aval, slot[op.c].aval);
          const TimesResult cand = abs_times(bc.val, w);
          clip = bc.clip || cand.clip;
          note_fin(bc.val);
          note_fin(cand.val);
          out_dst = abs_select(slot[op.a].aval, cand.val, net.semiring);
          break;
        }
        case OpKind::kRelax: {
          const TimesResult cand = abs_times(slot[op.b].aval, w);
          clip = cand.clip;
          note_fin(cand.val);
          out_dst = abs_select(slot[op.a].aval, cand.val, net.semiring);
          // dst+1 takes either the station immediate or the old index half.
          out_pair = abs_select(abs_const(static_cast<Cost>(op.c)),
                                slot[op.a + 1].aval, net.semiring);
          break;
        }
      }
      note_fin(out_dst);
      note_fin(out_pair);
      if (clip) {
        clip_found = true;
        emit_val(site(), slot_name(op.dst),
                 "two finite operands can sum into the infinity sentinel "
                 "band — sat_add() would silently clamp a real cost "
                 "(weight " + cost_to_string(wc) + ")");
      }

      // -- writes.
      if (st.compacted) {
        // The op's write is one definition event: check the written group
        // against the state *before* this op's writes, then commit.
        const std::uint32_t g = lv.base[op.dst];
        if (gdef[g] != 0 && glast[g] >= t) {
          emit_comp(site(), slot_name(op.dst),
                    "redefines a slot whose previous value is still live "
                    "(last touched at level " + std::to_string(glast[g]) +
                        ", redefined at level " + std::to_string(t) +
                        ") — overlapping live ranges share a slot, "
                        "compaction is unsound");
        }
        gdef[g] = 1;
        glast[g] = std::max(glast[g], static_cast<std::uint32_t>(t));
      }
      const auto write = [&](sim::SlotId s, const AbsVal& v) {
        SlotState& ss = slot[s];
        ++ss.writes;
        if (!st.compacted && ss.writes > 1) {
          emit_ssa(site(), slot_name(s),
                   "slot is written more than once on an uncompacted tape — "
                   "single assignment violated (" +
                       std::to_string(ss.writes) + " writes so far)");
        }
        ss.def_op = static_cast<std::int64_t>(i);
        ss.def_level = static_cast<std::int64_t>(t);
        ss.aval = v;
      };
      write(op.dst, out_dst);
      if (op.kind == OpKind::kRelax) write(op.dst + 1, out_pair);
    }
  }

  // --- compaction-safety cross-check: this pass's last-touch aggregation
  // must agree with compile/live_range.hpp, the analysis the allocator
  // actually ran.  Pinned (output) groups are excluded — the liveness side
  // deliberately collapses them to a sentinel.
  if (st.compacted) {
    for (std::uint32_t g = 0; g < n; ++g) {
      if (lv.base[g] != g || lv.last[g] == compile::TapeLiveness::kPinned) {
        continue;
      }
      if (glast[g] != lv.last[g]) {
        emit_comp("tape", slot_name(g),
                  "verifier liveness disagrees with compile/live_range.hpp "
                  "for this slot group (verifier last touch " +
                      std::to_string(glast[g]) + ", compaction's " +
                      std::to_string(lv.last[g]) +
                      ") — the allocator and its proof have drifted apart");
      }
    }
  }

  // --- output-reachability: every output written, every op feeding one.
  {
    std::vector<std::uint8_t> live(nops, 0);
    for (const Output& o : net.outputs) {
      if (!slot[o.slot].has_def) {
        emit_reach("output", o.tag + "[" + std::to_string(o.index) + "]",
                   "declared output reads " + slot_name(o.slot) +
                       ", which nothing ever writes — verify_outputs() "
                       "would compare garbage");
        continue;
      }
      const std::int64_t d = slot[o.slot].def_op;  // final definition
      if (d >= 0) live[static_cast<std::size_t>(d)] = 1;
    }
    // Every resolved read names an earlier op (the scan records a read
    // before the op's own writes), so one backward sweep closes the live
    // set: an op is final once every later op has passed on its reads.
    for (std::uint64_t i = nops; i-- > 0;) {
      if (live[i] == 0) continue;
      for (const std::uint32_t d : opst[i].rdef) {
        if (d != OpState::kNoOp) live[d] = 1;
      }
    }
    for (std::uint64_t i = 0; i < nops; ++i) {
      if (live[i] != 0) continue;
      ++st.dead_ops;
      emit_reach(op_site(i, net.level_of_op(i)), slot_name(net.ops[i].dst),
                 "no declared output can observe this op's value through "
                 "any def-use chain — dead work on the tape",
                 Severity::kWarning);
    }
  }

  // --- provenance: the slot→port table, when present, must agree with
  // the tape it annotates.  Runs after the forward scan so def_level is
  // available for the sampling-order proof.
  {
    const Emitter emit = emitter(kProvenance);
    const compile::Provenance& prov = net.provenance;
    st.provenance_lanes = prov.lanes.size();
    st.provenance_binds = prov.binds.size();
    const std::uint32_t nlanes = static_cast<std::uint32_t>(prov.lanes.size());

    if (!prov.op_lane.empty() && prov.op_lane.size() != nops) {
      emit("tape", "",
           "op→lane attribution holds " +
               std::to_string(prov.op_lane.size()) + " entries for a tape of " +
               std::to_string(nops) +
               " ops — neither absent nor parallel to the tape");
    } else {
      for (std::uint64_t i = 0; i < prov.op_lane.size(); ++i) {
        const std::uint32_t lane = prov.op_lane[i];
        if (lane == compile::Provenance::kNone) continue;
        ++st.ops_attributed;
        if (lane >= nlanes) {
          emit(op_site(i), "",
               "attributed to lane " + std::to_string(lane) +
                   ", outside the table of " + std::to_string(nlanes) +
                   " lanes");
        }
      }
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
      if (!st.compacted) {
        // SSA: the slot has exactly one definition, so "sampled at the end
        // of level stamp-1" is provable per bind.  (Compacted tapes reuse
        // slot names; the lifetime extension that keeps these samples
        // valid is compaction-safety's cross-checked territory.)
        if (slot[bind.slot].def_op == kNoDef) {
          emit(site(), prov.lanes[bind.lane].label,
               "binds " + slot_name(bind.slot) +
                   ", which nothing ever writes — the waveform would "
                   "sample garbage");
        } else if (slot[bind.slot].def_level >=
                   static_cast<std::int64_t>(bind.stamp)) {
          emit(site(), prov.lanes[bind.lane].label,
               "stamp " + std::to_string(bind.stamp) + " samples " +
                   slot_name(bind.slot) + " defined at level " +
                   std::to_string(slot[bind.slot].def_level) +
                   " — the register would show a value before the tape "
                   "computes it");
        }
      }
    }
  }

  // --- value-range and schedule summaries.
  st.int32_safe = !clip_found && st.max_abs_finite <= opt.value_bound;
  if (!clip_found && st.max_abs_finite > opt.value_bound) {
    emit_val("tape", "",
             "reachable finite values span up to " +
                 std::to_string(st.max_abs_finite) +
                 " — exceeds the configured bound of " +
                 std::to_string(opt.value_bound) +
                 "; narrow-lane kernels would need widening",
             Severity::kWarning);
  }
  if (st.transport_slack_ops > 0) {
    emit_sched("tape", "",
               std::to_string(st.transport_slack_ops) + " of " +
                   std::to_string(nops) +
                   " ops are scheduled past their dependence-minimal level "
                   "(max slack " + std::to_string(st.max_transport_slack) +
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
