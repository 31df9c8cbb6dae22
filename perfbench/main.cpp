// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload oneshot|rebind|sweep --seed N --seconds S
//             --trace 0|1
//
// Runs one seeded workload as a single-threaded closed loop for S seconds
// of wall time.  Prints a human-readable summary, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
// metrics of a traced run, whose chrome trace and metrics document go to
// .bench_build/traces/ under the working directory.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Reported {
  std::string name;
  double value = 0;
  std::string unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload oneshot|rebind|sweep --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool seed = false;
  bool seconds = false;
  bool trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        trace = true;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload != "oneshot" && opt.workload != "rebind" &&
      opt.workload != "sweep") {
    usage("--workload must be oneshot, rebind or sweep");
  }
  if (!seed || !seconds || !trace) usage("--seed, --seconds, --trace needed");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds out of range");
  return opt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Print self time per top-level span and family, by layer and by stage,
/// each as a share of the group; also store every entry in `gauges`.
void report_self_time(const std::map<Tracer::SelfKey, double>& self_ms,
                      std::map<std::string, double>& gauges) {
  std::map<std::pair<std::string, std::string>, std::map<std::string, double>>
      groups;
  for (const auto& [key, ms] : self_ms) {
    groups[{key[0], key[1]}][key[2]] += ms;
    gauges["self_ms." + key[0] + "." + key[1] + "." + key[2]] = ms;
  }
  std::printf("# self time by top-level span and family:\n");
  for (const auto& [group, stages] : groups) {
    double total = 0;
    std::map<std::string, double> layers;
    for (const auto& [stage, ms] : stages) {
      total += ms;
      layers[stage.substr(0, stage.find('.'))] += ms;
    }
    std::printf("#   %s %s: %.3f ms\n", group.first.c_str(),
                group.second.c_str(), total);
    for (const auto& [layer, ms] : layers) {
      std::printf("#     layer %-26s %12.3f ms %7.2f%%\n", layer.c_str(), ms,
                  100.0 * ms / total);
    }
    for (const auto& [stage, ms] : stages) {
      std::printf("#       %-30s %12.3f ms %7.2f%%\n", stage.c_str(), ms,
                  100.0 * ms / total);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    Tracer tracer(opt.trace);
    Ledger ledger;
    const Outcome out =
        opt.workload == "oneshot"  ? run_oneshot(opt, tracer, ledger)
        : opt.workload == "rebind" ? run_rebind(opt, tracer, ledger)
                                   : run_sweep(opt, tracer, ledger);
    if (ledger.attempted() == 0 || out.busy_ms <= 0) {
      throw std::runtime_error("no operation was timed");
    }
    const double p50 = quantile(out.op_ms, 0.5);
    const double p90 = quantile(out.op_ms, 0.9);
    const double per_s =
        static_cast<double>(out.instances) / (out.busy_ms / 1e3);
    const double error_rate = static_cast<double>(ledger.failed()) /
                              static_cast<double>(ledger.attempted());

    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("# attempted %llu, failed %llu, error_rate %.6g\n",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()), error_rate);
    std::printf("# timed operations %zu (latency samples), instances %llu, "
                "set-up rounds %zu\n",
                out.op_ms.size(),
                static_cast<unsigned long long>(out.instances),
                out.setup_s.size());

    std::vector<Reported> metrics;
    if (!opt.trace) {
      metrics = {{"solve_ms_p50", p50, "ms"},
                 {"solve_ms_p90", p90, "ms"},
                 {"instances_per_s", per_s, "1/s"},
                 {"setup_s", median(out.setup_s), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
    } else {
      auto layers = out.layers;
      layers["traced.solve_ms_p50"] = p50;
      layers["traced.instances_per_s"] = per_s;
      for (const auto& def : layer_metrics()) {
        const auto it = layers.find(def.name);
        metrics.push_back(
            {def.name, it == layers.end() ? 0.0 : it->second, def.unit});
        if (it != layers.end()) layers.erase(it);
      }
      if (!layers.empty()) {
        throw std::logic_error("undeclared per-layer metric " +
                               layers.begin()->first);
      }
      std::map<std::string, double> gauges;
      for (const auto& m : metrics) gauges[m.name] = m.value;
      report_self_time(tracer.self_ms(), gauges);
      tracer.write(".bench_build/traces",
                   opt.workload + "-seed" + std::to_string(opt.seed),
                   gauges,
                   {{"attempted", ledger.attempted()},
                    {"failed", ledger.failed()}});
    }
    for (const auto& m : metrics) {
      if (m.value == 0.0 && opt.trace) continue;  // layer not on this path
      std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }

    std::string json = "{\"correct\": ";
    json += ledger.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ledger.attempted());
    json += ", \"failed\": " + std::to_string(ledger.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              json_number(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
