// One-shot telemetry capture for any registered design instance.
//
//   sysdp_trace [--design <substr>] [--out-dir <dir>] [--bucket <cycles>]
//               [--gating <dense|sparse>] [--engine <modular|compiled>]
//               [--dnc <N,K>] [--list]
//
// For every matching design of examples/design_registry.hpp (the same
// fixed instances the lint gate certifies) the tool runs the array once on
// a fresh engine with the full observability stack attached and emits
// three artifacts into --out-dir (default "."):
//
//   <name>.vcd           — per-port waveforms (GTKWave-viewable)
//   <name>.metrics.json  — sysdp-metrics-v2 counters/gauges + utilisation
//                          timeline (per-PE busy deltas per bucket)
//   <name>.trace.json    — Chrome trace-event JSON (chrome://tracing or
//                          Perfetto)
//
// The tool cross-checks its own telemetry before writing: the timeline's
// aggregate busy count must equal the run's busy_steps (the observer saw
// every unit of work the array accounted), and where the timeline observed
// the full run its utilisation must equal the array's wall utilisation.
// Any mismatch is a telemetry bug and exits nonzero.
//
// --engine compiled switches the capture to the compiled flat-tape
// backend: each matching design is lowered (compile::lower_array), the
// tape is replayed with per-op oracle checking, and an observed replay
// emits the full artifact set —
//
//   <name>.compiled.vcd           — waveforms rendered from the tape's
//                                   slot→port provenance, same signal
//                                   names as the interpreted VCD
//   <name>.compiled.metrics.json  — tape shape + replay counters +
//                                   latency histograms +
//                                   lowering's stage times (lower.*_ms)
//   <name>.compiled.profile.json  — sysdp-profile-v1: per-level op/kind
//                                   counts, per-replay records, timing
//   <name>.compiled.trace.json    — Chrome-trace spans of the levels
//
// with the same cross-checks as the interpreted path: the provenance
// timeline's aggregate busy count must equal the replay's ops_executed,
// and the profiler's per-level op counts must equal the tape's own CSR
// level sizes.
//
// --dnc N,K additionally records the divide-and-conquer scheduler of
// src/dnc/schedule over an N-leaf problem on K arrays and writes
// dnc-n<N>-k<K>.trace.json with one Chrome-trace thread per array; the
// span density is the paper's eq. (29) processor utilisation.
//
// Numeric arguments are read whole (examples/cli_args.hpp): a malformed
// value or an unknown option names itself and exits 2.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/tape_verify.hpp"
#include "cli_args.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/profile.hpp"
#include "design_registry.hpp"
#include "dnc/metrics.hpp"
#include "dnc/schedule.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/timeline.hpp"
#include "obs/vcd.hpp"
#include "sim/engine.hpp"

namespace {

using namespace sysdp;

int usage() {
  std::fprintf(
      stderr,
      "usage: sysdp_trace [--design <substring>] [--out-dir <dir>]\n"
      "                   [--bucket <cycles>] [--gating <dense|sparse>]\n"
      "                   [--engine <modular|compiled>] [--dnc <N,K>]\n"
      "                   [--list]\n");
  return 2;
}

/// Design names carry instance decorations ("design1-modular[q2,m3]");
/// artifact basenames keep only portable characters.
std::string file_base(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.') {
      out += c;
    } else if (c == '[' || c == ',') {
      out += c == '[' ? '-' : '_';
    }  // ']' and anything else drops
  }
  return out;
}

struct Options {
  std::string filter;
  std::string out_dir = ".";
  sim::Cycle bucket = 1;
  sim::Gating gating = sim::Gating::kSparse;
  bool compiled = false;
  bool list = false;
  bool dnc = false;
  std::uint64_t dnc_n = 0;
  std::uint64_t dnc_k = 0;
};

/// --engine compiled: lower the design to its flat tape, replay it with
/// per-op oracle checking, then replay again with the full observer stack
/// (provenance VCD, per-module timeline, profiler) attached and emit the
/// four compiled artifacts.  Scalar and 4-lane batched replays both feed
/// the profiler, so the profile carries a real latency distribution and
/// the per-lane skew figure.
bool trace_design_compiled(const examples::DesignSpec& spec,
                           const Options& opt) {
  const auto inst = spec.make();
  compile::Lowered low;
  try {
    low = inst->lower();
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "sysdp_trace: %s: lowering failed: %s\n",
                 spec.name.c_str(), e.what());
    return false;
  }
  // Static proofs before dynamic replay: a tape that fails verification
  // would waste the checked run on a schedule that is already known bad.
  const auto verdict = analysis::verify_tape(low.net, spec.name);
  if (!verdict.clean()) {
    std::fprintf(stderr, "sysdp_trace: %s: tape verification failed:\n%s",
                 spec.name.c_str(), verdict.to_text().c_str());
    return false;
  }
  compile::CompiledEngine ce(low.net);
  const auto div = ce.run_all_checked();
  if (div.found) {
    std::fprintf(stderr,
                 "sysdp_trace: %s: compiled replay diverged at op %llu "
                 "(got %lld, oracle %lld)\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(div.index),
                 static_cast<long long>(div.got),
                 static_cast<long long>(div.expected));
    return false;
  }
  if (ce.verify_outputs().found) {
    std::fprintf(stderr, "sysdp_trace: %s: compiled outputs diverge\n",
                 spec.name.c_str());
    return false;
  }

  const std::filesystem::path dir(opt.out_dir);
  const std::string base = file_base(spec.name);

  // Observed replay: fresh engine, full stack attached before cycle 0.
  // The VCD streams straight to disk so a mid-replay failure still leaves
  // a well-formed document of everything up to the failing level.
  compile::CompiledEngine replay(low.net);
  obs::ReplayVcdSink vcd(base);
  obs::ReplayTimelineSink rtimeline(opt.bucket);
  compile::ReplayProfiler profiler;
  replay.add_observer(&vcd);
  replay.add_observer(&rtimeline);
  replay.add_observer(&profiler);
  replay.run_all();
  profiler.finish();

  // Cross-check: the profiler's per-level op counts are the tape's own
  // CSR level sizes — the observer saw exactly the work the tape holds.
  for (sim::Cycle t = 0; t < low.net.cycles(); ++t) {
    const std::uint64_t width = low.net.cycle_off[t + 1] - low.net.cycle_off[t];
    const std::uint64_t seen =
        t < profiler.levels().size() ? profiler.levels()[t].ops : 0;
    if (seen != width) {
      std::fprintf(stderr,
                   "sysdp_trace: %s: profiler level %llu saw %llu ops, tape "
                   "holds %llu\n",
                   spec.name.c_str(), static_cast<unsigned long long>(t),
                   static_cast<unsigned long long>(seen),
                   static_cast<unsigned long long>(width));
      return false;
    }
  }
  // Cross-check: every executed op landed in exactly one timeline row.
  rtimeline.finalize();
  const compile::ReplayResult rres = replay.result();
  if (rtimeline.aggregate_busy() != rres.ops_executed) {
    std::fprintf(stderr,
                 "sysdp_trace: %s: compiled timeline aggregate %llu != "
                 "ops_executed %llu\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(rtimeline.aggregate_busy()),
                 static_cast<unsigned long long>(rres.ops_executed));
    return false;
  }

  // More replays — a few scalar, then a 4-lane batched run — so the
  // latency histograms and the skew figure describe a distribution, not a
  // single sample.
  for (int r = 0; r < 3; ++r) {
    replay.reset();
    replay.run_all();
  }
  compile::CompiledEngine batched(low.net, 4);
  batched.add_observer(&profiler);
  batched.run_all();
  profiler.finish();

  obs::MetricsRegistry metrics;
  obs::profile_metrics(metrics, profiler);
  metrics.set_counter("replay.levels_executed", rres.levels_executed);
  metrics.set_counter("replay.levels_skipped", rres.levels_skipped);
  metrics.set_counter("vcd.signals", vcd.num_signals());
  metrics.set_gauge("replay.occupancy", rres.level_occupancy());
  metrics.set_gauge("timeline.utilization", rtimeline.utilization());
  metrics.set_counter("tape.ops", low.net.num_ops());
  metrics.set_counter("tape.levels", low.net.cycles());
  metrics.set_counter("tape.slots", low.net.num_slots);
  metrics.set_counter("tape.outputs", low.net.outputs.size());
  metrics.set_counter("tape.copies_elided", low.net.stats.copies_elided);
  metrics.set_counter("tape.consts_interned", low.net.stats.consts_interned);
  metrics.set_counter("tape.lanes_bound", low.net.stats.lanes_bound);
  metrics.set_counter("tape.named_lanes", low.net.stats.named_lanes);
  metrics.set_counter("tape.compacted", low.net.compacted() ? 1 : 0);
  if (low.net.compacted()) {
    metrics.set_counter("tape.slots_uncompacted",
                        low.net.stats.slots_uncompacted);
  }
  metrics.set_counter("tape.dependence_depth",
                      verdict.stats.dependence_depth);
  metrics.set_counter("oracle.busy_steps", low.net.stats.oracle_busy_steps);
  metrics.set_counter("oracle.dense_evals", low.net.stats.oracle_dense_evals);
  // Lowering's own stage split (wall time, ms).
  metrics.set_gauge("lower.oracle_ms", low.net.stats.oracle_ms);
  metrics.set_gauge("lower.naming_ms", low.net.stats.naming_ms);
  metrics.set_gauge("lower.compact_ms", low.net.stats.compact_ms);
  if (low.net.cycles() > 0) {
    metrics.set_gauge("tape.ops_per_level",
                      static_cast<double>(low.net.num_ops()) /
                          static_cast<double>(low.net.cycles()));
  }

  obs::ChromeTraceWriter trace;
  obs::append_replay_trace(trace, spec.name, profiler, 4);
  obs::append_timeline_trace(trace, rtimeline.timeline(), 2);

  vcd.write_file((dir / (base + ".compiled.vcd")).string());
  obs::write_text_file((dir / (base + ".compiled.metrics.json")).string(),
                       obs::metrics_json(spec.name, metrics, nullptr));
  obs::write_text_file((dir / (base + ".compiled.profile.json")).string(),
                       obs::profile_json(spec.name, low.net, profiler));
  trace.write_file((dir / (base + ".compiled.trace.json")).string());
  std::printf(
      "%-28s levels=%-6llu slots=%-6u ops=%-6llu elided=%-6llu signals=%zu "
      "replay=ok\n",
      spec.name.c_str(), static_cast<unsigned long long>(low.net.cycles()),
      low.net.num_slots, static_cast<unsigned long long>(low.net.num_ops()),
      static_cast<unsigned long long>(low.net.stats.copies_elided),
      vcd.num_signals());
  return true;
}

/// Capture one design: run with VCD + timeline observers, cross-check,
/// write the three artifacts.  Returns false on telemetry mismatch.
bool trace_design(const examples::DesignSpec& spec, const Options& opt) {
  const auto inst = spec.make();

  sim::Engine engine(opt.gating);
  obs::VcdSink vcd(file_base(spec.name));
  obs::TimelineSink timeline(
      inst->num_pes(),
      [&inst](std::size_t pe) { return inst->pe_busy(pe); }, opt.bucket);
  engine.add_observer(&vcd);
  engine.add_observer(&timeline);
  inst->run(engine);
  timeline.finalize();
  const examples::RunStats& stats = inst->stats();

  // Telemetry must agree with the array's own accounting: every busy step
  // the array counted shows up in exactly one timeline bucket.
  if (timeline.aggregate_busy() != stats.busy_steps) {
    std::fprintf(stderr,
                 "sysdp_trace: %s: timeline aggregate %llu != busy_steps "
                 "%llu\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(timeline.aggregate_busy()),
                 static_cast<unsigned long long>(stats.busy_steps));
    return false;
  }
  // Where the timeline observed exactly the accounted wall-clock window,
  // the utilisations must match too (run_until designs may step a few
  // cycles past the completion cycle the stats report).
  if (timeline.cycles() == stats.cycles && timeline.num_pes() == stats.num_pes &&
      timeline.utilization() != stats.utilization_wall()) {
    std::fprintf(stderr, "sysdp_trace: %s: timeline utilization %f != %f\n",
                 spec.name.c_str(), timeline.utilization(),
                 stats.utilization_wall());
    return false;
  }

  obs::MetricsRegistry metrics;
  metrics.set_counter("run.cycles", stats.cycles);
  metrics.set_counter("run.busy_steps", stats.busy_steps);
  metrics.set_counter("run.num_pes", stats.num_pes);
  metrics.set_counter("engine.active_evals", stats.active_evals);
  metrics.set_counter("engine.dense_evals", stats.dense_evals);
  metrics.set_counter("sink.dropped", stats.trace_dropped);
  metrics.set_counter("vcd.signals", vcd.num_signals());
  metrics.set_gauge("run.utilization_wall", stats.utilization_wall());
  metrics.set_gauge("timeline.utilization", timeline.utilization());
  if (stats.dense_evals > 0) {
    metrics.set_gauge("engine.activity",
                      static_cast<double>(stats.active_evals) /
                          static_cast<double>(stats.dense_evals));
  }

  obs::ChromeTraceWriter trace;
  trace.process_name(2, "simulated: " + spec.name);
  obs::append_timeline_trace(trace, timeline, 2);

  const std::filesystem::path dir(opt.out_dir);
  const std::string base = file_base(spec.name);
  vcd.write_file((dir / (base + ".vcd")).string());
  obs::write_text_file((dir / (base + ".metrics.json")).string(),
                       obs::metrics_json(spec.name, metrics, &timeline));
  trace.write_file((dir / (base + ".trace.json")).string());
  std::printf(
      "%-28s cycles=%-6llu pes=%-3zu busy=%-6llu util=%.3f vcd_signals=%zu\n",
      spec.name.c_str(), static_cast<unsigned long long>(stats.cycles),
      stats.num_pes, static_cast<unsigned long long>(stats.busy_steps),
      stats.utilization_wall(), vcd.num_signals());
  return true;
}

/// Record the DnC scheduler timeline for an N-leaf chain on K arrays.
bool trace_dnc(const Options& opt) {
  ScheduleWorkspace ws;
  std::vector<ScheduleSpan> spans;
  const ScheduleResult res =
      schedule_and_tree(static_cast<std::size_t>(opt.dnc_n), opt.dnc_k,
                        SchedulePolicy::kHighestLevelFirst, ws, &spans);

  obs::ChromeTraceWriter trace;
  trace.process_name(1, "dnc scheduler");
  obs::append_schedule_trace(trace, spans, opt.dnc_k, 1);

  const std::filesystem::path dir(opt.out_dir);
  const std::string base = "dnc-n" + std::to_string(opt.dnc_n) + "-k" +
                           std::to_string(opt.dnc_k);
  trace.write_file((dir / (base + ".trace.json")).string());
  std::printf("%-28s makespan=%-6llu tasks=%-6llu PU=%.3f (eq29 %.3f)\n",
              base.c_str(), static_cast<unsigned long long>(res.makespan),
              static_cast<unsigned long long>(res.tasks),
              res.utilization(opt.dnc_k), pu_eq29(opt.dnc_n, opt.dnc_k));
  return true;
}

/// --dnc N,K: an N-leaf problem (N >= 2) on K >= 1 arrays.
void parse_dnc(std::string_view arg, Options& opt) {
  const std::size_t comma = arg.find(',');
  const auto n = examples::parse_unsigned(arg.substr(0, comma), 2);
  const auto k = comma == std::string_view::npos
                     ? std::nullopt
                     : examples::parse_unsigned(arg.substr(comma + 1), 1);
  if (!n || !k) {
    throw examples::UsageError(
        "--dnc takes N,K with N >= 2 and K >= 1, got '" + std::string(arg) +
        "'");
  }
  opt.dnc_n = *n;
  opt.dnc_k = *k;
  opt.dnc = true;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw examples::UsageError(std::string(arg) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--design") {
      opt.filter = value();
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--bucket") {
      opt.bucket = examples::unsigned_arg(arg, value(), 1);
    } else if (arg == "--gating") {
      const std::string_view g = value();
      if (g == "dense") {
        opt.gating = sim::Gating::kDense;
      } else if (g == "sparse") {
        opt.gating = sim::Gating::kSparse;
      } else {
        throw examples::UsageError("--gating takes dense or sparse, got '" +
                                   std::string(g) + "'");
      }
    } else if (arg == "--engine") {
      const std::string_view e = value();
      if (e == "compiled") {
        opt.compiled = true;
      } else if (e != "modular") {
        throw examples::UsageError(
            "--engine takes modular or compiled, got '" + std::string(e) +
            "'");
      }
    } else if (arg == "--dnc") {
      parse_dnc(value(), opt);
    } else {
      throw examples::UsageError("unknown option '" + std::string(arg) + "'");
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const examples::UsageError& e) {
    std::fprintf(stderr, "sysdp_trace: %s\n", e.what());
    return usage();
  }

  const auto designs = examples::all_designs();
  if (opt.list) {
    for (const auto& d : designs) std::printf("%s\n", d.name.c_str());
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sysdp_trace: cannot create out dir '%s': %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  std::size_t traced = 0;
  bool ok = true;
  for (const auto& d : designs) {
    if (!opt.filter.empty() && d.name.find(opt.filter) == std::string::npos) {
      continue;
    }
    ok = (opt.compiled ? trace_design_compiled(d, opt)
                       : trace_design(d, opt)) &&
         ok;
    ++traced;
  }
  if (opt.dnc) {
    ok = trace_dnc(opt) && ok;
    ++traced;
  }
  if (traced == 0) {
    std::fprintf(stderr, "sysdp_trace: no design matches '%s'\n",
                 opt.filter.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}
