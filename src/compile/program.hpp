// The compiled flat-netlist program format.
//
// A CompiledNetlist is what trace-based lowering (compile/lower.hpp) emits
// from one oracle run of a modular design: the whole machine reduced to
//
//   * one flat slot file — a struct-of-arrays register image where every
//     value the run ever produces has a fixed 32-bit index (sim::SlotId),
//     constants deduplicated, copies eliminated entirely;
//   * one packed op tape — 32-byte descriptors in a contiguous array, the
//     packed-clause idiom: everything an op touches is named by index, so
//     the executor is a branch-light loop over flat memory with no virtual
//     dispatch, no pointer chasing and no per-module state;
//   * a cycle index — CSR offsets grouping the tape into dependency
//     levels.  Ops inside one level depend only on earlier levels (or on
//     the op immediately before them, for in-place fold chains recorded in
//     oracle order), because that is literally how the two-phase clocked
//     oracle executed them.  Replaying level by level is therefore
//     cycle-exact by construction.
//
// The tape carries its own differential expectations: every op and every
// declared output remembers the value the oracle produced, so "compiled
// matches interpreted" is a property the executor can check about itself
// (CompiledEngine::verify_*) instead of a separate harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compile/aligned.hpp"
#include "semiring/cost.hpp"
#include "sim/module.hpp"
#include "sim/record.hpp"

namespace sysdp::compile {

/// Which closed semiring the tape's kernels fold over.  The five paper
/// designs all lower to (MIN,+); (MAX,+) shares every kernel shape with
/// the comparison direction flipped (longest path / critical path DP).
enum class TapeSemiring : std::uint8_t { kMinPlus, kMaxPlus };

/// Op kinds — one per scalar kernel in semiring/kernels.hpp.
enum class OpKind : std::uint8_t {
  /// slot[dst] = slot[a] (+) (w (x) slot[b])          — kern::mac
  kMac,
  /// cand = slot[b] (x) slot[c] (x) w;
  /// slot[dst] = slot[a] (+) cand                     — interval fold
  kFold,
  /// cand = slot[b] (x) w; improved = cand better than slot[a];
  /// slot[dst]   = improved ? cand : slot[a];
  /// slot[dst+1] = improved ? c    : slot[a+1]        — pair relaxation
  kRelax,
};

/// One tape op: 32 bytes, all operands by slot index.  Field meaning
/// depends on kind (see OpKind); `w` is the immediate weight (matrix
/// entry, local candidate weight, edge cost) baked in at lowering time —
/// weights are instance constants, only the DP values flow through slots.
///
/// `param` is the op's index in the tape's *parameter plane* (see
/// CompiledNetlist::params): on a parameterised tape an executor with a
/// bound weight table reads `table[param]` instead of the baked `w`, which
/// is how one lowering of a family shape serves any weight assignment.
/// The recorder currently emits one parameter per op (param == op index);
/// executors must go through `param`, not assume the identity map.
struct Op {
  sim::SlotId dst = 0;
  sim::SlotId a = 0;
  sim::SlotId b = 0;
  sim::SlotId c = 0;
  Cost w = 0;
  OpKind kind = OpKind::kMac;
  std::uint32_t param = 0;
};

// The parameter-plane field must not push the op descriptor past two ops
// per cache line: the hot loops are sized around 32-byte descriptors.
static_assert(sizeof(Op) <= 32, "two ops per cache line");

/// Initial value of one slot (constants and captured reset state).  Slots
/// not listed are op destinations, written before any read by SSA
/// construction.
struct SlotInit {
  sim::SlotId slot = 0;
  Cost value = 0;
};

/// One declared result: the design's `tag[index]` lives in `slot`, and the
/// oracle observed `expected` there.
struct Output {
  std::string tag;
  std::uint64_t index = 0;
  sim::SlotId slot = 0;
  Cost expected = 0;
};

/// One provenance lane: a design storage key the oracle run narrated,
/// named after its writer module and declared port label when lowering
/// matched it against the modules' declared ports
/// (LowerOptions::capture_netlist).  Lanes whose key matched no declared
/// port keep a synthetic "lane<N>" label and stay unnamed — the waveform
/// layer skips them so every emitted signal name also exists in the
/// interpreted run's VCD.
struct ProvenanceLane {
  std::string module;  ///< writer module name; empty when unresolved
  std::string label;   ///< declared port label; "lane<N>" when unresolved
  /// Index into Provenance::modules, or Provenance::kNone when unresolved.
  std::uint32_t module_id = 0xffffffffu;
  bool named = false;  ///< matched to a declared port
};

/// One binding event: at VCD time `stamp`, the design register behind
/// `lane` started holding the value in tape slot `slot`.  Stamp 0 is the
/// pre-cycle-0 reset state (obs::VcdSink's `#0` initial dump); stamp t+1
/// is a binding committed at the end of cycle t, matching the interpreted
/// VCD's change stamps exactly.  Sampling `slot` at the end of level
/// stamp-1 (or the initial image, for stamp 0) therefore reproduces the
/// register's waveform — live-range compaction extends slot lifetimes so
/// the sample is always taken before the slot index is recycled.
struct ProvenanceBind {
  std::uint32_t stamp = 0;
  std::uint32_t lane = 0;
  sim::SlotId slot = 0;
};

/// The slot→port provenance table: which design module and described port
/// each tape slot and op originated from.  Emitted by the recorder during
/// lowering, named from the modules' declared ports after the run, and
/// carried through compaction via the live-range remap — the compiled
/// backend's link from flat slot indices back to the signal names the
/// interpreted observers (obs::VcdSink, obs::TimelineSink) report.
struct Provenance {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Distinct writer-module names, in first-seen lane order.  The
  /// compiled timeline treats each module as one PE row.
  std::vector<std::string> modules;
  std::vector<ProvenanceLane> lanes;
  /// Sorted by stamp (stable: narration order within one stamp).
  std::vector<ProvenanceBind> binds;
  /// Per-op provenance lane (parallel to CompiledNetlist::ops): the lane
  /// the op's destination slot was first bound to, or kNone for
  /// intermediates no register ever held (e.g. partial fold results).
  std::vector<std::uint32_t> op_lane;

  [[nodiscard]] bool empty() const noexcept { return lanes.empty(); }
  /// Module id op `i` is attributed to, via its destination lane.
  [[nodiscard]] std::uint32_t module_of_op(std::uint64_t i) const noexcept {
    if (i >= op_lane.size() || op_lane[i] == kNone) return kNone;
    return lanes[op_lane[i]].module_id;
  }
};

/// Lowering statistics — what the flattening bought.
struct TapeStats {
  std::uint64_t copies_elided = 0;   ///< register writes with no tape op
  std::uint64_t consts_interned = 0; ///< dedup hits on constant()
  std::uint64_t lanes_bound = 0;     ///< distinct storage keys narrated
  std::uint64_t named_lanes = 0;     ///< lanes matched to declared ports
  std::uint64_t oracle_active_evals = 0;
  std::uint64_t oracle_dense_evals = 0;
  std::uint64_t oracle_busy_steps = 0;  ///< must equal ops.size()
  /// True once compact_slots() has renamed the slot file.  Explicit —
  /// `slots_uncompacted == 0` used to double as "never compacted", which
  /// conflated an empty compacted tape with an untouched SSA one and made
  /// the single-assignment property undecidable from the stats alone.
  bool compacted = false;
  /// SSA slot count before live-range compaction (compile/compact.hpp);
  /// meaningful only when `compacted`.  num_slots after compaction is the
  /// peak live count — the executor's true working set.
  std::uint64_t slots_uncompacted = 0;
  /// Optimizer pipeline record (compile/optimize.hpp): the level the tape
  /// was run through (0 = untouched) and what the passes removed.  After
  /// optimization `oracle_busy_steps == ops.size()` no longer holds — the
  /// pruned-op count closes the books.
  std::uint8_t opt_level = 0;
  std::uint64_t ops_pruned = 0;   ///< dead-op elimination removals
  std::uint64_t levels_fused = 0; ///< dependency levels merged away
  /// Wall time of lowering's stages, in ms (compile/lower.hpp): the
  /// narrated oracle run (including sealing the tape), the lane-naming
  /// pass, and compaction; 0 for a stage lowering did not run.
  double oracle_ms = 0;
  double naming_ms = 0;
  double compact_ms = 0;
};

struct CompiledNetlist {
  TapeSemiring semiring = TapeSemiring::kMinPlus;
  std::uint32_t num_slots = 0;
  std::vector<SlotInit> init;
  /// Cycle-major, oracle program order inside a cycle.  Cache-line aligned:
  /// the lane kernels stream the tape with wide loads.
  AlignedVec<Op> ops;
  /// CSR dependency levels: cycle t executes ops [cycle_off[t],
  /// cycle_off[t+1]).  Size = cycles + 1; most levels are empty in gated
  /// phases, and the executor skips them at no per-level cost.
  std::vector<std::uint32_t> cycle_off;
  /// Per-op oracle value (parallel to `ops`): the value the modular engine
  /// computed for this op's destination.  Kept for checked replay; the
  /// bench path never touches it.
  std::vector<Cost> expected;
  std::vector<Output> outputs;
  /// Parameter plane (LowerOptions::parameterise).  When `parameterised`,
  /// `params[p]` holds the weight the oracle ran with for parameter `p`
  /// (the *oracle binding*); executors may install any other same-length
  /// weight table via their bind() APIs and replay the identical schedule
  /// — the tape's control never depends on the values, so one lowering of
  /// a family shape (same sizes and topology) serves every weight
  /// assignment.  `expected` and `Output::expected` are statements about
  /// the oracle binding only.
  bool parameterised = false;
  std::vector<Cost> params;
  /// Slot→port provenance table (empty when lowering recorded none, e.g.
  /// hand-built or fuzzed tapes — every consumer treats empty as "no
  /// provenance", never as an error).
  Provenance provenance;
  TapeStats stats;

  [[nodiscard]] sim::Cycle cycles() const noexcept {
    return cycle_off.empty() ? 0 : cycle_off.size() - 1;
  }
  [[nodiscard]] std::uint64_t num_ops() const noexcept { return ops.size(); }
  [[nodiscard]] std::uint64_t num_params() const noexcept {
    return params.size();
  }
  /// True once live-range compaction has renamed the slot file — the tape
  /// is no longer SSA and slot indices are reused across levels.
  [[nodiscard]] bool compacted() const noexcept { return stats.compacted; }
  /// Dependency level (oracle cycle) op `i` executes in, by binary search
  /// of the CSR cycle index.  Precondition: i < num_ops() and the CSR
  /// index is well-formed (static analyses over untrusted tapes validate
  /// that first).
  [[nodiscard]] sim::Cycle level_of_op(std::uint64_t i) const noexcept {
    // First level whose end offset is past op i.
    std::size_t lo = 0;
    std::size_t hi = cycle_off.empty() ? 0 : cycle_off.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cycle_off[mid + 1] > i) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
};

}  // namespace sysdp::compile
