// The compiled route shared by the oneshot and rebind workloads: build the
// engine-backed array for a problem, lower, compact and verify it as
// separate stages, and read the optimum off a replayed tape.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/gkt_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "bench.hpp"
#include "compile/lower.hpp"
#include "io/problem_io.hpp"

namespace perfbench {

/// Hand a fresh engine-backed array for `problem` to `f`: Design 1 for a
/// multistage graph (kDesign1), the GKT array for chain dimensions (kGkt).
/// Arrays are single-use, since lower_array needs one that never ran.
template <typename F>
decltype(auto) with_array(std::string_view family,
                          const sysdp::AnyProblem& problem, F&& f) {
  if (family == kDesign1) {
    auto prob = sysdp::to_string_product(
        std::get<sysdp::MultistageGraph>(problem));
    sysdp::Design1Modular arr(std::move(prob.mats), std::move(prob.v));
    return f(arr);
  }
  sysdp::GktModularArray arr(std::get<std::vector<sysdp::Cost>>(problem));
  return f(arr);
}

/// Times and tape facts of one lowering, for the traced run.
struct LoweringRecord {
  double lower_ms = 0;
  double compact_ms = 0;
  double verify_ms = 0;
  double oracle_ms = 0;     ///< attribution probe, see attribute()
  double nocapture_ms = 0;  ///< attribution probe, see attribute()
  std::uint64_t slots_ssa = 0;
  std::uint64_t slots = 0;
  std::uint64_t ops = 0;
  std::uint64_t levels = 0;
  std::uint64_t nonempty_levels = 0;
  std::uint64_t findings = 0;  ///< verifier warnings and errors
};

/// Lower `problem`, compact the tape and verify it: the work of
/// lower_array with compaction on followed by verify_tape_or_throw, split
/// so that each step is its own span.  Throws std::runtime_error with the
/// verifier's report if it finds an error.
[[nodiscard]] sysdp::compile::Lowered lower_checked(
    std::string_view family, std::uint64_t id,
    const sysdp::AnyProblem& problem, bool parameterise, Tracer& tracer,
    LoweringRecord& rec);

/// Attribution probes of the traced run, outside every timed operation:
/// the same array run alone on a dense serial engine with no recorder
/// (the oracle), and lowered with netlist capture off.  Together with the
/// lowering they split its time into oracle, recorder and provenance.
void attribute(std::string_view family, std::uint64_t id,
               const sysdp::AnyProblem& problem, bool parameterise,
               Tracer& tracer, LoweringRecord& rec);

/// Per-layer samples of one lowering under `<family>.`.
void add_lowering(LayerStats& stats, std::string_view family,
                  const LoweringRecord& rec);

/// Copy the lowering metrics of `family` out of `stats` into `layers`.
void report_lowering(const LayerStats& stats, std::string_view family,
                     std::map<std::string, double>& layers);

/// Tape slots holding the optimum: every Design 1 "out" output (the answer
/// is their minimum) or the GKT root cell.  Throws if the tape has none.
[[nodiscard]] std::vector<sysdp::sim::SlotId> answer_slots(
    std::string_view family, const sysdp::compile::CompiledNetlist& net,
    const sysdp::AnyProblem& problem);

}  // namespace perfbench
