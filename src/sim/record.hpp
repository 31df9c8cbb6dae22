// Op-recording hook for trace-based lowering.
//
// The compiled backend (src/compile) does not re-implement any array's
// control logic.  Instead it runs the modular design once on a serial,
// gated Engine — the oracle — with an OpRecorder attached, and the array
// models narrate every value-carrying action they perform: each semiring
// operation becomes a tape op, each register write of an unmodified value
// becomes a compile-time binding update (a copy elided from the tape).
// Because all five paper designs steer data by tags, counters and validity
// bits — never by comparing cost values — the recorded schedule is valid
// for every cost assignment with the same instance structure, and the
// replay is bit-identical and cycle-exact by construction.
//
// The model is SSA over a flat slot file:
//
//   * A SlotId names one immutable 64-bit value cell.  Constants are
//     interned; every recorded op allocates a fresh destination slot.
//   * A *lane* is a storage key (the same `const void*` keys modules
//     declare through sim/port.hpp) currently *bound* to a slot.  Copying
//     a value through a register rebinds the destination lane — no tape op
//     is emitted.  `bind_staged` follows two-phase register semantics and
//     takes effect at end of cycle; `bind_now` is for state that is
//     legitimately visible within the cycle that wrote it (combinational
//     buses, a cell folding into its own running best).
//   * Pair slots model Design 3's travelling (cost, argmin) tokens: the
//     arg rides in the slot adjacent to the value, so one SlotId moves
//     both halves.
//
// sim knows only this abstract interface; the concrete Recorder that turns
// the narration into a CompiledNetlist lives in src/compile.  Arrays guard
// every call behind a null check, so a run without a recorder pays one
// predictable branch per site.
#pragma once

#include <cstdint>
#include <string_view>

namespace sysdp::sim {

/// Index of one immutable value cell in the compiled slot file.  32-bit by
/// design: four slot ids fit in one cache line's worth of op descriptor.
using SlotId = std::uint32_t;

/// What one narrated run of an array records, worked out by the array
/// from its shape before the run, so a recorder can size its storage once.
/// `ops` is exact: every paper design marks one busy step per semiring op,
/// and its busy steps follow from the shape alone (the closed forms of
/// EXPERIMENTS.md, or a triangular rule's candidate tables).  `lanes`, the
/// storage keys the run narrates, is stated only where the shape fixes it
/// exactly (Design 1's R and ACC registers plus its input bus, one per
/// cell's best in the GKT and triangular arrays) and is 0 otherwise.
/// Lowering checks both against the run.
struct NarrationExtent {
  std::uint64_t ops = 0;
  std::uint64_t lanes = 0;
};

class OpRecorder {
 public:
  OpRecorder() = default;
  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;
  virtual ~OpRecorder() = default;

  // --- slots --------------------------------------------------------------
  /// Interned constant value; repeated calls with the same value return the
  /// same slot.
  virtual SlotId constant(std::int64_t value) = 0;
  /// Interned (value, arg) pair occupying two adjacent slots; returns the
  /// value slot, the arg lives at the returned id + 1.
  virtual SlotId constant_pair(std::int64_t value, std::int64_t arg) = 0;
  /// Slot currently bound to `key`.  An unbound lane is initialised to an
  /// interned constant holding `live` — the value the oracle just observed
  /// there — so reset state is captured without per-array bookkeeping.
  virtual SlotId lane(const void* key, std::int64_t live) = 0;
  /// Pair-slot variant of lane(); auto-initialises to constant_pair.
  virtual SlotId lane_pair(const void* key, std::int64_t live,
                           std::int64_t arg) = 0;

  // --- bindings -----------------------------------------------------------
  /// Rebind `key` to `slot`, visible to reads later in the same cycle.
  virtual void bind_now(const void* key, SlotId slot) = 0;
  /// Rebind `key` to `slot` at end of cycle (two-phase register write).
  virtual void bind_staged(const void* key, SlotId slot) = 0;

  // --- ops (each returns the fresh destination slot) ----------------------
  /// dst = base (+) (w (x) x) — the Design 1/2 multiply-accumulate.
  virtual SlotId mac(SlotId base, std::int64_t w, SlotId x) = 0;
  /// dst = best (+) (left (x) right (x) local) — the triangular candidate
  /// fold (kern::interval_candidate then in-place min).
  virtual SlotId fold(SlotId best, SlotId left, SlotId right,
                      std::int64_t local) = 0;
  /// Pair relaxation (Design 3's add-compare): cand = kh (x) edge; if cand
  /// improves pair's value, dst pair = (cand, station), else dst pair =
  /// src pair.  `pair` and the result are pair slots.
  virtual SlotId relax(SlotId pair, SlotId kh, std::int64_t edge,
                       std::int64_t station) = 0;

  // --- results ------------------------------------------------------------
  /// Declare that the design's result `tag[index]` is the value in `slot`;
  /// `observed` is the value the oracle produced, kept as the built-in
  /// differential expectation.  Last declaration per (tag, index) wins,
  /// mirroring a harvest loop overwriting an output cell.
  virtual void output(std::string_view tag, std::uint64_t index, SlotId slot,
                      std::int64_t observed) = 0;
  /// Same, but for the arg half of pair slot `pair`.
  virtual void output_arg(std::string_view tag, std::uint64_t index,
                          SlotId pair, std::int64_t observed) = 0;
};

}  // namespace sysdp::sim
