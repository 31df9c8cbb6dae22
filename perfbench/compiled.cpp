#include "compiled.hpp"

#include <stdexcept>

#include "analysis/tape_verify.hpp"
#include "compile/compact.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace sysdp;

namespace {

compile::LowerOptions lower_options(bool capture, bool parameterise) {
  compile::LowerOptions opt;
  opt.capture_netlist = capture;
  opt.parameterise = parameterise;
  // Compaction runs as its own stage; lower_array would run the same
  // compact_slots() call last.
  opt.compact = false;
  return opt;
}

}  // namespace

compile::Lowered lower_checked(std::string_view family, std::uint64_t id,
                               const AnyProblem& problem, bool parameterise,
                               Tracer& tracer, LoweringRecord& rec) {
  compile::Lowered low;
  {
    auto span = tracer.stage(family, id, "compile.lower");
    low = with_array(family, problem, [&](auto& arr) {
      return compile::lower_array(arr, lower_options(true, parameterise));
    });
    rec.lower_ms = span.stop();
  }
  rec.slots_ssa = low.net.num_slots;
  {
    auto span = tracer.stage(family, id, "compile.compact");
    compile::compact_slots(low.net);
    rec.compact_ms = span.stop();
  }
  rec.slots = low.net.num_slots;
  analysis::TapeVerifyReport report;
  {
    auto span = tracer.stage(family, id, "analysis.verify");
    report = analysis::verify_tape(low.net, "compiled tape");
    rec.verify_ms = span.stop();
  }
  rec.ops = report.stats.ops;
  rec.levels = report.stats.levels;
  rec.nonempty_levels = report.stats.nonempty_levels;
  rec.findings = report.warnings() + report.errors();
  if (report.errors() > 0) throw std::runtime_error(report.to_text());
  return low;
}

void attribute(std::string_view family, std::uint64_t id,
               const AnyProblem& problem, bool parameterise, Tracer& tracer,
               LoweringRecord& rec) {
  {
    auto span = tracer.stage(family, id, "sim.oracle");
    with_array(family, problem, [](auto& arr) {
      sim::Engine oracle;  // serial and dense, like lower_array's own
      (void)arr.run(oracle);
    });
    rec.oracle_ms = span.stop();
  }
  auto span = tracer.stage(family, id, "compile.lower_nocapture");
  (void)with_array(family, problem, [&](auto& arr) {
    return compile::lower_array(arr, lower_options(false, parameterise));
  });
  rec.nocapture_ms = span.stop();
}

void add_lowering(LayerStats& stats, std::string_view family,
                  const LoweringRecord& rec) {
  const std::string f = std::string(family) + ".";
  stats.sample(f + "compile.lower_ms", rec.lower_ms);
  stats.sample(f + "sim.oracle_ms", rec.oracle_ms);
  stats.sample(f + "compile.record_ms", rec.nocapture_ms - rec.oracle_ms);
  stats.sample(f + "compile.provenance_ms", rec.lower_ms - rec.nocapture_ms);
  stats.sample(f + "compile.compact_ms", rec.compact_ms);
  stats.sample(f + "compile.slots_ssa", static_cast<double>(rec.slots_ssa));
  stats.sample(f + "compile.slots_compacted", static_cast<double>(rec.slots));
  stats.sample(f + "analysis.verify_ms", rec.verify_ms);
  stats.add(f + "analysis.findings", static_cast<double>(rec.findings));
  stats.sample(f + "compile.ops", static_cast<double>(rec.ops));
  stats.sample(f + "compile.levels", static_cast<double>(rec.levels));
  stats.add(f + "levels", static_cast<double>(rec.levels));
  stats.add(f + "nonempty_levels", static_cast<double>(rec.nonempty_levels));
}

void report_lowering(const LayerStats& stats, std::string_view family,
                     std::map<std::string, double>& layers) {
  const std::string f = std::string(family) + ".";
  for (const char* name :
       {"compile.lower_ms", "sim.oracle_ms", "compile.record_ms",
        "compile.provenance_ms", "compile.compact_ms", "compile.slots_ssa",
        "compile.slots_compacted", "analysis.verify_ms", "compile.ops",
        "compile.levels"}) {
    layers[f + name] = stats.median_of(f + name);
  }
  layers[f + "analysis.findings"] = stats.sum(f + "analysis.findings");
  const double levels = stats.sum(f + "levels");
  layers[f + "compile.level_occupancy"] =
      levels > 0 ? stats.sum(f + "nonempty_levels") / levels : 0.0;
}

std::vector<sim::SlotId> answer_slots(std::string_view family,
                                      const compile::CompiledNetlist& net,
                                      const AnyProblem& problem) {
  std::vector<sim::SlotId> out;
  if (family == kDesign1) {
    for (const auto& o : net.outputs) {
      if (o.tag == "out") out.push_back(o.slot);
    }
  } else {
    const std::uint64_t root =
        std::get<std::vector<Cost>>(problem).size() - 2;  // cell (0, n-1)
    for (const auto& o : net.outputs) {
      if (o.tag == "cell" && o.index == root) out.push_back(o.slot);
    }
  }
  if (out.empty()) {
    throw std::runtime_error("tape declares no output holding the optimum");
  }
  return out;
}

}  // namespace perfbench
