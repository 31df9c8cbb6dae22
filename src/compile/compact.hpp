// Live-range slot compaction for compiled tapes.
//
// The recorder emits SSA: every op writes a fresh slot, so the slot file
// scales with the op count (one 96-wide family lowers to ~150k slots ≈
// 1.2 MB).  A single-lane replay tolerates that — the file stays resident
// across replays — but a B-lane replay multiplies it by B
// (compile/engine.hpp), and ~10 MB of lane-major slot traffic per
// replay turns a compute problem into a DRAM-bandwidth problem.
//
// compact_slots() renames slots by linear-scan reuse: a slot whose last
// touch (read or write) is in dependency level t is dead from level t+1
// on, and its physical index can be handed to a later op's destination.
// The live set of the paper designs is bounded by the array's registers,
// not the run length, so the slot file shrinks by orders of magnitude and
// the engine's working set — at any lane count — becomes cache-sized.
//
// Reuse is level-granular on purpose: a freed index is reallocated only in
// a strictly later level than its last touch, so any in-level reordering
// that preserves same-level RAW chains (the optimizer's kind-major
// regrouping) stays sound — no write in level t can clobber a value still
// read in level t.
//
// kRelax ops address slot pairs (dst/dst+1, a/a+1), so paired slots move
// as one contiguous group.  Output slots are pinned — they must survive to
// verify_outputs() — and `expected` stays valid untouched because it is
// indexed by op, not by slot.
//
// Semantic change worth knowing: after compaction, value(slot) of a
// logically dead slot may show a later value that recycled its index.
// Live reads — every op operand and every declared output — are unchanged.
#pragma once

#include <cstdint>

#include "compile/program.hpp"

namespace sysdp::compile {

struct CompactStats {
  std::uint32_t slots_before = 0;
  std::uint32_t slots_after = 0;
};

/// Rename `net`'s slots in place so indices are reused across dependency
/// levels; shrinks num_slots to the peak live count.  Idempotent.  Throws
/// std::logic_error if the tape reads a slot that is never written — a
/// lowering bug this pass would otherwise silently bury.
CompactStats compact_slots(CompiledNetlist& net);

}  // namespace sysdp::compile
