// Slot-group liveness over a compiled tape — the analysis half of
// live-range compaction (compile/compact.cpp), exported so other passes
// can consume the same facts.
//
// Two consumers share this header:
//
//   * compact_slots() drives its linear-scan allocator off the group
//     structure and last-touch levels computed here;
//   * analysis::TapeVerifier cross-checks its own per-definition liveness
//     scan against this group-level summary, so the compaction pass and
//     the verifier cannot drift apart silently — a disagreement between
//     the two is itself a finding.  It applies the summary's pieces
//     (group_slots, touch_groups, pin_outputs) inside its own single scan
//     of the tape instead of calling compute_liveness().
//
// Everything is header-only on purpose: src/analysis may not link against
// sysdp_compile (the compile library already links sysdp_analysis for
// netlist capture), so the shared analysis must live entirely in inline
// code over compile/program.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "compile/program.hpp"

namespace sysdp::compile {

/// Group-level liveness facts for one tape.  kRelax ops address slot
/// pairs (dst/dst+1, a/a+1), so paired slots form one *group* that lives
/// and dies together; scalar slots are singleton groups.
struct TapeLiveness {
  /// Sentinel for `last`: the group is pinned (a declared output lives in
  /// it) and must survive to the end of the tape.
  static constexpr std::uint32_t kPinned = 0xffffffffu;

  /// base[s] — first slot of the group containing slot s.
  std::vector<std::uint32_t> base;
  /// extent[g] — group size in slots; meaningful only where base[g] == g.
  std::vector<std::uint32_t> extent;
  /// last[g] — last dependency level that reads or writes any slot of
  /// group g, or kPinned; meaningful only where base[g] == g.  A group
  /// nothing ever touches keeps 0 — indistinguishable from "last touched
  /// at level 0" by design, exactly as the compaction pass treats it.
  std::vector<std::uint32_t> last;
};

/// The group structure of every slot, with every group's last touch at 0:
/// the part of compute_liveness() that must precede a scan of the tape.
/// Safe on any tape: a pair naming a slot outside the file joins nothing,
/// and a caller validating an untrusted tape rejects that op before it
/// reads a group through it.
[[nodiscard]] inline TapeLiveness group_slots(const CompiledNetlist& net) {
  TapeLiveness lv;
  const std::uint32_t n = net.num_slots;
  lv.base.resize(n);
  lv.extent.assign(n, 0);
  lv.last.assign(n, 0);
  if (n == 0) return lv;

  // Grouping: kRelax addresses dst/dst+1 and a/a+1 as pairs, so those
  // slots must stay contiguous.  joined[s] means s and s+1 share a group;
  // groups are the maximal runs of joined slots.
  std::vector<std::uint8_t> joined(n, 0);
  for (const Op& op : net.ops) {
    if (op.kind == OpKind::kRelax && op.dst < n && op.a < n) {
      joined[op.dst] = 1;
      joined[op.a] = 1;
    }
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    lv.base[s] = (s > 0 && joined[s - 1] != 0) ? lv.base[s - 1] : s;
    ++lv.extent[lv.base[s]];
  }
  return lv;
}

/// Last touch: op `op`, in dependency level `level`, reads or writes every
/// slot group it names (dst+1 / a+1 share the dst / a group).  Ops must
/// come in level order, so each touch is the group's latest so far.
inline void touch_groups(TapeLiveness& lv, const Op& op, std::uint32_t level) {
  lv.last[lv.base[op.dst]] = level;
  lv.last[lv.base[op.a]] = level;
  lv.last[lv.base[op.b]] = level;
  if (op.kind == OpKind::kFold) lv.last[lv.base[op.c]] = level;
}

/// Output slots are pinned: verify_outputs reads them after the run.
inline void pin_outputs(TapeLiveness& lv, const CompiledNetlist& net) {
  for (const Output& o : net.outputs) {
    lv.last[lv.base[o.slot]] = TapeLiveness::kPinned;
  }
}

/// Compute the group structure and last-touch level of every slot group,
/// exactly as compact_slots() sees them: group_slots(), touch_groups() for
/// every op in level order, then pin_outputs().  Safe on any tape whose
/// slot references are in range.
[[nodiscard]] inline TapeLiveness compute_liveness(const CompiledNetlist& net) {
  TapeLiveness lv = group_slots(net);
  if (lv.base.empty()) return lv;
  const auto cycles = static_cast<std::uint32_t>(net.cycles());
  for (std::uint32_t t = 0; t < cycles; ++t) {
    for (std::uint32_t i = net.cycle_off[t]; i < net.cycle_off[t + 1]; ++i) {
      touch_groups(lv, net.ops[i], t);
    }
  }
  pin_outputs(lv, net);
  return lv;
}

}  // namespace sysdp::compile
