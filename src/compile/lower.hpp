// Trace-based lowering: modular design -> CompiledNetlist.
//
// lower_array() runs the design once on a serial, gated oracle engine with
// a Recorder attached.  The array models narrate every semiring op and
// register write (sim/record.hpp); the recorder shadow-executes the
// narration and emits the flat tape.  Why this is sound for the paper's
// designs: their control — which PE fires, with which weight, into which
// register, on which cycle — is a function of tags, counters and validity
// bits only, never of the cost values flowing through.  One concrete run
// therefore fixes the complete schedule for the instance, and the tape
// replays it bit-identically, cycle for cycle.  The oracle gates
// (sim::Gating::kSparse): a quiescent module's eval is an observational
// no-op by the engine's contract, so skipping it narrates nothing the tape
// needs, and the active modules still step in registration order (the
// gated sweep runs combinational modules first, and every design
// registers its one combinational module first).
//
// Provenance names come after the run: one describe_ports sweep over the
// oracle's modules (and the array's environment taps) into a port set
// filtered on the recorder's lanes (sim::PortSet's key filter) keeps only
// the ports whose storage key some lane narrated, and names each such
// lane by the rules analysis::capture() applies to the full netlist — so
// the compiled program is still the elaborated netlist, flattened,
// without paying for the parts of it no lane touched.  A module that asks
// PortSet::wants() before it declares a port formats no label and builds
// no sampler for a key no lane holds.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compact.hpp"
#include "compile/program.hpp"
#include "compile/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"
#include "sim/record.hpp"

namespace sysdp::compile {

struct LowerOptions {
  /// Name provenance lanes after the oracle run: module and port label
  /// from the declared ports whose keys the narration touched (see the
  /// file comment); ports no lane holds are filtered out as they are
  /// declared, so the pass costs about one key lookup per port.  Off
  /// leaves every lane unnamed ("lane<N>").
  bool capture_netlist = true;
  /// Rename slots by live-range reuse after lowering (compile/compact.hpp):
  /// the recorder's SSA slot file scales with the op count, compaction
  /// shrinks it to the peak live count so replays — above all a B-lane
  /// replay, whose slot traffic is multiplied by the lane count —
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

/// Name of analysis::capture()'s environment node: the module a lane is
/// attributed to when only testbench taps (or nothing) write its storage.
inline constexpr const char* kEnvironmentModule = "environment";

/// Milliseconds since `t0`.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Name the recorder's provenance lanes from the ports the oracle's
/// modules declare, in registration order, then the array's environment
/// taps — the node order of analysis::capture().  The sweep's port set
/// filters on Recorder::lane_of, so only ports whose key some lane
/// narrated are kept (and a module that asks PortSet::wants() formats
/// nothing for the rest), and each named lane gets what capture()
/// would give its storage: the label of its first declaration, replaced
/// by any writer's non-empty label (the last one wins), or "lane<N>" when
/// that is empty; and as module its first writer, or the environment node
/// when only the environment (or nothing) writes it.  Module names are
/// interned first-seen in lane order into Provenance::modules (empty on
/// entry), which fixes the compiled timeline's PE-row order.  Returns the
/// number of lanes named.
template <typename Array>
std::uint64_t name_lanes(Provenance& prov, const Recorder& rec,
                         const sim::Engine& engine, const Array& arr) {
  const std::vector<sim::Module*>& modules = engine.modules();
  const auto env = static_cast<std::uint32_t>(modules.size());
  std::vector<std::uint8_t> seen(prov.lanes.size(), 0);
  std::vector<std::uint32_t> writer(prov.lanes.size(), Provenance::kNone);
  const auto sweep = [&](std::uint32_t node, const sim::PortSet& ports) {
    for (const sim::Port& p : ports.ports()) {
      const std::uint32_t l = rec.lane_of(p.storage);
      if (l == Provenance::kNone) continue;
      const bool out = p.dir == sim::PortDir::kOut;
      if (!p.label.empty() && (seen[l] == 0 || out)) {
        prov.lanes[l].label = p.label;
      }
      seen[l] = 1;
      if (out && writer[l] == Provenance::kNone) writer[l] = node;
    }
  };
  sim::PortSet ports([&rec](const void* key) {
    return rec.lane_of(key) != Provenance::kNone;
  });
  for (std::uint32_t m = 0; m < env; ++m) {
    ports.clear();
    modules[m]->describe_ports(ports);
    sweep(m, ports);
  }
  ports.clear();
  arr.describe_environment(ports);
  sweep(env, ports);

  std::unordered_map<std::string, std::uint32_t> module_ids;
  std::uint64_t named = 0;
  for (std::size_t l = 0; l < prov.lanes.size(); ++l) {
    if (seen[l] == 0) continue;
    ProvenanceLane& lane = prov.lanes[l];
    lane.module = writer[l] < env ? modules[writer[l]]->name()
                                  : std::string(kEnvironmentModule);
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
/// oracle engine is internal, serial and gated, its active modules
/// stepping in the canonical program order.  The recorder is sized once
/// from the array's narration_extent() (sim/record.hpp).  Throws
/// std::logic_error if the narration is inconsistent with the oracle's
/// live values or the busy-step invariant fails — the oracle's busy steps
/// must equal both the tape's op count and the count the array worked out
/// from its shape — or if the run narrates another number of lanes than
/// the array stated, so lowering bugs die here, not in a diverging replay.
/// Fills TapeStats' stage times: the narrated oracle run, the naming pass
/// and compaction.
template <typename Array>
[[nodiscard]] Lowered lower_array(Array& arr, const LowerOptions& opt = {}) {
  using Clock = std::chrono::steady_clock;
  const sim::NarrationExtent extent = arr.narration_extent();
  sim::Engine oracle(sim::Gating::kSparse);
  Recorder rec(extent);
  oracle.set_recorder(&rec);
  oracle.add_observer(&rec);

  auto t0 = Clock::now();
  const auto result = arr.run(oracle);

  Lowered out;
  out.oracle_cycles = oracle.now();
  out.net = rec.finish(opt.parameterise);
  out.net.stats.oracle_ms = detail::ms_since(t0);
  out.net.stats.oracle_active_evals = oracle.active_evals();
  out.net.stats.oracle_dense_evals = oracle.dense_evals();
  out.net.stats.oracle_busy_steps = detail::busy_steps_of(result);
  if (opt.capture_netlist) {
    t0 = Clock::now();
    out.net.stats.named_lanes =
        detail::name_lanes(out.net.provenance, rec, oracle, arr);
    out.net.stats.naming_ms = detail::ms_since(t0);
  }
  if (out.net.cycles() != out.oracle_cycles) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.cycles()) +
        " dependency levels but the oracle ran " +
        std::to_string(out.oracle_cycles) + " cycles");
  }
  // Every paper design marks exactly one busy step per semiring op, and
  // its busy steps follow from its shape.
  if (out.net.num_ops() != out.net.stats.oracle_busy_steps) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.num_ops()) +
        " ops but the oracle counted " +
        std::to_string(out.net.stats.oracle_busy_steps) +
        " busy steps — a narration site is missing or duplicated");
  }
  if (extent.ops != out.net.stats.oracle_busy_steps) {
    throw std::logic_error(
        "compile::lower_array: the array's shape predicts " +
        std::to_string(extent.ops) + " busy steps but the oracle counted " +
        std::to_string(out.net.stats.oracle_busy_steps) +
        " — the closed form and the model disagree");
  }
  if (extent.lanes != 0 && extent.lanes != out.net.stats.lanes_bound) {
    throw std::logic_error(
        "compile::lower_array: the array's shape predicts " +
        std::to_string(extent.lanes) + " lanes but the run narrated " +
        std::to_string(out.net.stats.lanes_bound) +
        " — the lane count and the model disagree");
  }
  if (opt.compact) {
    t0 = Clock::now();
    compact_slots(out.net);
    out.net.stats.compact_ms = detail::ms_since(t0);
  }
  return out;
}

}  // namespace sysdp::compile
