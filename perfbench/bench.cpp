#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void Ledger::fail(const std::string& what, std::uint64_t n) {
  constexpr std::uint64_t kReported = 10;
  if (failed_ < kReported) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  failed_ += n;
}

Tracer::Span::Span(Tracer& tracer, std::string_view family, std::uint64_t id,
                   std::string_view stage, bool timed)
    : tracer_(tracer), timed_(timed) {
  if (!timed_) return;
  t0_ = Clock::now();
  if (tracer_.enabled_) {
    index_ = tracer_.records_.size();
    tracer_.records_.push_back(
        {family, stage, id, tracer_.since_origin(t0_), 0, tracer_.depth_++});
  }
}

double Tracer::Span::stop() {
  if (!open_) return ms_;
  open_ = false;
  if (!timed_) return ms_;
  const auto t1 = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(t1 - t0_).count();
  if (tracer_.enabled_) {
    tracer_.records_[index_].t1_ns = tracer_.since_origin(t1);
    --tracer_.depth_;
  }
  return ms_;
}

namespace {

std::string layer_of(std::string_view stage) {
  return std::string(stage.substr(0, stage.find('.')));
}

}  // namespace

std::map<Tracer::SelfKey, double> Tracer::self_ms() const {
  // Records are in start order, so a span's direct children follow it
  // at depth + 1 before anything at its own depth or above.
  std::vector<std::int64_t> self(records_.size());
  std::vector<std::size_t> open;
  std::map<SelfKey, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    while (!open.empty() && records_[open.back()].depth >= r.depth) {
      open.pop_back();
    }
    self[i] = r.t1_ns - r.t0_ns;
    if (!open.empty()) self[open.back()] -= self[i];
    open.push_back(i);
  }
  std::string_view root;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.depth == 0) root = r.stage;
    out[{std::string(root), std::string(r.family), std::string(r.stage)}] +=
        static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

void Tracer::write(const std::string& dir, const std::string& stem,
                   const std::map<std::string, double>& gauges,
                   const std::map<std::string, std::uint64_t>& counters)
    const {
  std::filesystem::create_directories(dir);
  sysdp::obs::ChromeTraceWriter trace(records_.size() + 2);
  trace.process_name(1, "perfbench " + stem);
  trace.thread_name(1, 1, "client");
  sysdp::obs::MetricsRegistry registry;
  for (const Record& r : records_) {
    const std::string stage(r.stage);
    trace.complete_event(std::string(r.family) + "#" + std::to_string(r.id) +
                             " " + stage,
                         layer_of(r.stage), 1, 1,
                         static_cast<double>(r.t0_ns) / 1e3,
                         static_cast<double>(r.t1_ns - r.t0_ns) / 1e3);
    registry.observe(std::string(r.family) + "." + stage + ".ns",
                     static_cast<std::uint64_t>(r.t1_ns - r.t0_ns));
  }
  for (const auto& [name, value] : gauges) registry.set_gauge(name, value);
  for (const auto& [name, value] : counters) registry.set_counter(name, value);
  trace.write_file(dir + "/" + stem + ".trace.json");
  sysdp::obs::write_text_file(dir + "/" + stem + ".metrics.json",
                       sysdp::obs::metrics_json("perfbench " + stem, registry,
                                         nullptr));
}

double LayerStats::sum(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

double LayerStats::median_of(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : median(it->second);
}

double LayerStats::min_of(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() || it->second.empty()
             ? 0.0
             : *std::min_element(it->second.begin(), it->second.end());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::vector<MetricDef> layer_metrics() {
  // Lowering, verification and replay run on the two compiled families
  // (oneshot and rebind); the interpreted simulator and the behavioural
  // models run on all five (sweep).
  static const MetricDef kCompiled[] = {
      {"io.parse_ms", "ms"},
      {"io.parse_mb_per_s", "MB/s"},
      {"compile.lower_ms", "ms"},
      {"sim.oracle_ms", "ms"},
      {"compile.record_ms", "ms"},
      {"compile.provenance_ms", "ms"},
      {"compile.compact_ms", "ms"},
      {"compile.slots_ssa", "count"},
      {"compile.slots_compacted", "count"},
      {"analysis.verify_ms", "ms"},
      {"analysis.findings", "count"},
      {"compile.engine_init_ms", "ms"},
      {"compile.replay_checked_ms", "ms"},
      {"compile.replay_ns_per_op", "ns/op"},
      {"compile.ops", "count"},
      {"compile.levels", "count"},
      {"compile.level_occupancy", "ratio"},
      {"compile.harvest_ms", "ms"},
      {"compile.bind_ms", "ms"},
      {"compile.bind_share", "ratio"},
      {"compile.batch_replay_ms", "ms"},
      {"compile.batch_fallback_levels", "count"},
  };
  static const MetricDef kInterpreted[] = {
      {"sim.run_ms", "ms"},         {"sim.cycles", "count"},
      {"sim.active_evals", "count"}, {"sim.dense_evals", "count"},
      {"sim.activity", "ratio"},     {"core.solve_ms", "ms"},
  };

  std::vector<MetricDef> out;
  for (const std::string_view fam :
       {kDesign1, kGkt, kDesign2, kDesign3, kBst}) {
    const std::string prefix = std::string(fam) + ".";
    if (fam == kDesign1 || fam == kGkt) {
      for (const auto& m : kCompiled) out.push_back({prefix + m.name, m.unit});
    }
    for (const auto& m : kInterpreted) out.push_back({prefix + m.name, m.unit});
    out.push_back({prefix + "baseline.check_ms", "ms"});
  }
  // Smallest share of any timed operation that its stage spans cover.
  out.push_back({"coverage", "ratio"});
  out.push_back({"traced.solve_ms_p50", "ms"});
  out.push_back({"traced.instances_per_s", "1/s"});
  return out;
}

}  // namespace perfbench
