// Concrete OpRecorder: turns one oracle run's narration into a
// CompiledNetlist.
//
// The recorder is both halves of the lowering contract:
//
//   * as sim::OpRecorder it receives the narration — lane reads, register
//     binds, semiring ops — from the array models while the serial gated
//     oracle steps;
//   * as sim::EngineObserver it hears the clock: on_cycle closes a
//     dependency level (cycle_off boundary) and applies the two-phase
//     staged binds, exactly when the oracle's commit edge made those
//     values visible.
//
// It shadow-executes everything: each slot carries the concrete value the
// oracle produced for it, every lane() / pending() / output() call is
// verified against the live value the caller just observed, and every op's
// result is recorded as the tape's expected value.  A mis-narrated model
// therefore fails loudly at lowering time with the first inconsistent
// site, instead of producing a tape that silently diverges.
//
// Lanes are interned once, in one open-addressing key -> lane table; the
// lane's current binding lives in a dense per-lane slot vector, so each
// narrated read or write costs one probe and one indexed load.  The same
// table answers lane_of() after the run, which is how lowering names lanes
// from the ports the modules declare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compile/program.hpp"
#include "semiring/cost.hpp"
#include "sim/observer.hpp"
#include "sim/record.hpp"

namespace sysdp::compile {

class Recorder final : public sim::OpRecorder, public sim::EngineObserver {
 public:
  Recorder() = default;

  // --- sim::OpRecorder ----------------------------------------------------
  sim::SlotId constant(std::int64_t value) override;
  sim::SlotId constant_pair(std::int64_t value, std::int64_t arg) override;
  sim::SlotId lane(const void* key, std::int64_t live) override;
  sim::SlotId lane_pair(const void* key, std::int64_t live,
                        std::int64_t arg) override;
  sim::SlotId pending(const void* key, std::int64_t live) override;
  void bind_now(const void* key, sim::SlotId slot) override;
  void bind_staged(const void* key, sim::SlotId slot) override;
  sim::SlotId mac(sim::SlotId base, std::int64_t w, sim::SlotId x) override;
  sim::SlotId fold(sim::SlotId best, sim::SlotId left, sim::SlotId right,
                   std::int64_t local) override;
  sim::SlotId relax(sim::SlotId pair, sim::SlotId kh, std::int64_t edge,
                    std::int64_t station) override;
  void output(std::string_view tag, std::uint64_t index, sim::SlotId slot,
              std::int64_t observed) override;
  void output_arg(std::string_view tag, std::uint64_t index, sim::SlotId pair,
                  std::int64_t observed) override;

  // --- sim::EngineObserver ------------------------------------------------
  /// Clock edge: apply staged binds, close the current dependency level.
  void on_cycle(const sim::Engine& engine, sim::Cycle t) override;

  /// Provenance lane narrated for storage `key`, or Provenance::kNone if
  /// the run never touched it.  Valid after finish() too: lowering names
  /// lanes from the modules' declared ports once the tape is sealed.
  [[nodiscard]] std::uint32_t lane_of(const void* key) const noexcept {
    return table_.empty() ? Provenance::kNone : table_[probe(key)].lane;
  }

  /// Seal the tape.  Call after the oracle run completes; the recorder is
  /// spent afterwards.  With `parameterise`, the tape additionally carries
  /// its parameter plane (one weight parameter per op, initialised to the
  /// oracle binding) so executors can rebind per-instance weight tables.
  [[nodiscard]] CompiledNetlist finish(bool parameterise = false);

 private:
  sim::SlotId alloc(Cost concrete);
  [[nodiscard]] Cost concrete(sim::SlotId slot, const char* site) const;
  void check_live(sim::SlotId slot, std::int64_t live, const char* site) const;
  /// One entry of the key -> lane table; `lane == kNone` marks it empty.
  struct KeyLane {
    const void* key = nullptr;
    std::uint32_t lane = Provenance::kNone;
  };
  /// Table index holding `key`, or the empty entry where it would go.
  [[nodiscard]] std::size_t probe(const void* key) const noexcept;
  /// Lane of `key`, interned (bound to no slot yet) on first sight;
  /// `fresh` reports which.
  std::uint32_t intern(const void* key, bool& fresh);
  /// Double the table (at least 64 entries) and reinsert every lane.
  void grow();
  /// Copy `key`'s register from `slot` at the current stamp: a copy
  /// elided from the tape if the lane was bound to another slot.
  void rebind(const void* key, sim::SlotId slot);
  /// Provenance: one bind event of `lane` to `slot` at `stamp` (skipped if
  /// the lane already holds it), and first-bind-wins op attribution via
  /// the bound slot's defining op.
  void record_bind(std::uint32_t lane, sim::SlotId slot, std::uint32_t stamp);

  /// Shadow state of one slot: the concrete value the oracle produced
  /// there, the op that defined it (kNone for constants), and whether it
  /// is the value half of a pair.
  struct SlotRec {
    Cost value = 0;
    std::uint32_t def_op = Provenance::kNone;
    std::uint8_t pair_head = 0;
  };
  /// Slot `slot`'s record; throws std::logic_error naming `site` if the
  /// model narrated a slot id the recorder never handed out.
  [[nodiscard]] const SlotRec& slot_rec(sim::SlotId slot,
                                        const char* site) const;

  std::vector<SlotRec> slots_;
  std::vector<std::pair<const void*, sim::SlotId>> staged_;
  std::unordered_map<std::int64_t, sim::SlotId> const_cache_;
  std::map<std::pair<std::int64_t, std::int64_t>, sim::SlotId>
      const_pair_cache_;
  std::vector<SlotInit> init_;
  AlignedVec<Op> ops_;
  std::vector<Cost> expected_;
  std::vector<std::uint32_t> cycle_off_{0};
  std::vector<Output> outputs_;
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> output_index_;
  std::uint64_t copies_elided_ = 0;
  std::uint64_t consts_interned_ = 0;
  // Lanes and the provenance plane: the key -> lane table (power-of-two
  // capacity, at most half full, linear probing from the top bits of a
  // multiplicative hash), each lane's current slot, bind events in
  // narration order — reset binds (stamp 0, first touches, which arrive
  // at any cycle) apart from the committed ones (stamp t+1 for cycle t,
  // which arrive in stamp order) — and the lane each op's dst first bound
  // to.
  std::vector<KeyLane> table_;
  unsigned shift_ = 64;  ///< 64 - log2(table_.size())
  std::vector<std::uint32_t> lane_slot_;  ///< current slot per lane
  std::vector<ProvenanceBind> reset_binds_;
  std::vector<ProvenanceBind> binds_;
  std::vector<std::uint32_t> op_lane_;  ///< parallel to ops_
  bool finished_ = false;
};

}  // namespace sysdp::compile
