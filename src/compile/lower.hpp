// Trace-based lowering: modular design -> CompiledNetlist.
//
// lower_array() runs the design once on a serial, dense oracle engine with
// a Recorder attached.  The array models narrate every semiring op and
// register write (sim/record.hpp); the recorder shadow-executes the
// narration and emits the flat tape.  Why this is sound for the paper's
// designs: their control — which PE fires, with which weight, into which
// register, on which cycle — is a function of tags, counters and validity
// bits only, never of the cost values flowing through.  One concrete run
// therefore fixes the complete schedule for the instance, and the tape
// replays it bit-identically, cycle for cycle.
//
// The elaborated dataflow graph rides along: lowering captures
// analysis::capture()'s netlist at the oracle's elaboration point and uses
// it to tie the recorder's lanes back to declared storages (stats +
// diagnostics) — the compiled program is the same netlist, flattened.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/netlist.hpp"
#include "compile/compact.hpp"
#include "compile/optimize.hpp"
#include "compile/program.hpp"
#include "compile/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"

namespace sysdp::compile {

struct LowerOptions {
  /// Capture the analysis netlist at elaboration and resolve lane names.
  bool capture_netlist = true;
  /// Cross-check tape op count against the oracle's busy-step count: every
  /// paper design marks exactly one busy step per semiring op, so a
  /// mismatch means a narration site is missing or duplicated.
  bool check_busy_steps = true;
  /// Rename slots by live-range reuse after lowering (compile/compact.hpp):
  /// the recorder's SSA slot file scales with the op count, compaction
  /// shrinks it to the peak live count so replays — above all the B-lane
  /// batched replay, whose slot traffic is multiplied by the lane count —
  /// stay cache-resident.  Off only for tape-structure forensics.
  bool compact = true;
  /// Emit the parameter plane: weight-parameter indices on every op plus
  /// the oracle's weight table (CompiledNetlist::params), so engines can
  /// bind() per-instance weight tables and one lowering of a family shape
  /// serves any weight assignment.  Same-shape instances lower to
  /// structurally identical tapes (the designs' control depends on tags
  /// and counters, never on cost values), so their parameter planes align
  /// index for index.
  bool parameterise = false;
  /// Tape optimizer level (compile/optimize.hpp): 0 leaves the recorded
  /// schedule untouched, 1 runs the conservative pipeline (dead-op
  /// elimination, edge-free level fusion, kind-major reordering), 2 also
  /// fuses across same-kind chain edges.  Runs after the oracle
  /// cross-checks — the recorded tape is validated, then rewritten — and
  /// before compaction, which requires the SSA slot file.  Replay stays
  /// bit-identical at every level; an optimized tape's now() counts
  /// fused dependency levels, not oracle cycles.
  int optimize = 0;
};

struct Lowered {
  CompiledNetlist net;
  sim::Cycle oracle_cycles = 0;
};

namespace detail {

/// Busy-step count of a run result, whatever shape the family returns.
template <typename R>
[[nodiscard]] std::uint64_t busy_steps_of(const R& r) {
  if constexpr (requires { r.busy_steps; }) {
    return static_cast<std::uint64_t>(r.busy_steps);
  } else if constexpr (requires { r.stats.busy_steps; }) {
    return static_cast<std::uint64_t>(r.stats.busy_steps);
  } else {
    return 0;
  }
}

/// Resolve the recorder's provenance lanes against the captured netlist:
/// each lane's storage key is looked up among the declared storages, its
/// label becomes the declared port label and its module the storage's
/// first writer (or the environment node when nothing writes it).  Module
/// names are interned first-seen into Provenance::modules (empty on entry:
/// the recorder leaves it to this pass), which fixes the compiled
/// timeline's PE-row order.  Returns the number of lanes named.
/// Lanes look up a (key, storage) index sorted once per call, because
/// Netlist::storage_of scans every storage, which is quadratic over a tape
/// (GKT n = 96: 4,560 lanes x 18,240 storages); ties sort by index, so a
/// key resolves to its first storage, as there.  Module names intern
/// through a map for the same reason.
inline std::uint64_t resolve_provenance(Provenance& prov,
                                        const std::vector<const void*>& keys,
                                        const analysis::Netlist& netlist) {
  using Entry = std::pair<std::uintptr_t, std::uint32_t>;
  std::vector<Entry> by_key;
  by_key.reserve(netlist.storages.size());
  for (std::uint32_t s = 0; s < netlist.storages.size(); ++s) {
    by_key.emplace_back(
        reinterpret_cast<std::uintptr_t>(netlist.storages[s].key), s);
  }
  std::sort(by_key.begin(), by_key.end());
  std::unordered_map<std::string, std::uint32_t> module_ids;
  std::uint64_t named = 0;
  for (std::size_t i = 0; i < prov.lanes.size() && i < keys.size(); ++i) {
    const auto key = reinterpret_cast<std::uintptr_t>(keys[i]);
    const auto it =
        std::lower_bound(by_key.begin(), by_key.end(), Entry{key, 0});
    if (it == by_key.end() || it->first != key) continue;
    const analysis::Storage& storage = netlist.storages[it->second];
    ProvenanceLane& lane = prov.lanes[i];
    if (!storage.label.empty()) lane.label = storage.label;
    lane.module = storage.writers.empty()
                      ? netlist.node(netlist.environment).name
                      : netlist.node(storage.writers.front()).name;
    const auto [id, fresh] = module_ids.try_emplace(
        lane.module, static_cast<std::uint32_t>(prov.modules.size()));
    if (fresh) prov.modules.push_back(lane.module);
    lane.module_id = id->second;
    lane.named = true;
    ++named;
  }
  return named;
}

}  // namespace detail

/// Lower `arr` by oracle run.  The array must be fresh (never run); the
/// oracle engine is internal and serial+dense, the canonical program
/// order.  Throws std::logic_error if the narration is inconsistent with
/// the oracle's live values or the busy-step invariant fails — lowering
/// bugs die here, not in a diverging replay.
template <typename Array>
[[nodiscard]] Lowered lower_array(Array& arr, const LowerOptions& opt = {}) {
  sim::Engine oracle;
  Recorder rec;
  oracle.set_recorder(&rec);
  oracle.add_observer(&rec);
  analysis::Netlist netlist;
  bool captured = false;
  if (opt.capture_netlist) {
    oracle.set_elaboration_check([&](const sim::Engine& e) {
      analysis::CaptureOptions copts;
      arr.describe_environment(copts.environment);
      netlist = analysis::capture(e, copts);
      captured = true;
    });
  }

  const auto result = arr.run(oracle);

  Lowered out;
  out.oracle_cycles = oracle.now();
  out.net = rec.finish(opt.parameterise);
  out.net.stats.oracle_active_evals = oracle.active_evals();
  out.net.stats.oracle_dense_evals = oracle.dense_evals();
  out.net.stats.oracle_busy_steps = detail::busy_steps_of(result);
  if (captured) {
    out.net.stats.named_lanes = detail::resolve_provenance(
        out.net.provenance, rec.lane_key_table(), netlist);
  }
  if (out.net.cycles() != out.oracle_cycles) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.cycles()) +
        " dependency levels but the oracle ran " +
        std::to_string(out.oracle_cycles) + " cycles");
  }
  if (opt.check_busy_steps &&
      out.net.num_ops() != out.net.stats.oracle_busy_steps) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.num_ops()) +
        " ops but the oracle counted " +
        std::to_string(out.net.stats.oracle_busy_steps) +
        " busy steps — a narration site is missing or duplicated");
  }
  if (opt.optimize > 0) {
    OptimizeOptions oo;
    oo.level = opt.optimize;
    optimize_tape(out.net, oo);
  }
  if (opt.compact) compact_slots(out.net);
  return out;
}

}  // namespace sysdp::compile
