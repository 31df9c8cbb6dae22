#include "analysis/lint.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sysdp::analysis {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

/// Comma-joined node names for multi-module diagnostics.
std::string name_list(const Netlist& net, const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId id : ids) {
    if (!out.empty()) out += ", ";
    out += net.node(id).name;
  }
  return out;
}

/// Emit helper: one check's findings at one severity.
class Emitter {
 public:
  Emitter(std::string_view check, Severity severity, LintReport& report)
      : check_(check), severity_(severity), report_(report) {}

  void operator()(const std::string& module, const std::string& storage,
                  std::string message, Severity severity) const {
    report_.diagnostics.push_back(Diagnostic{
        std::string(check_), severity, module, storage, std::move(message)});
  }
  void operator()(const std::string& module, const std::string& storage,
                  std::string message) const {
    (*this)(module, storage, std::move(message), severity_);
  }

 private:
  std::string_view check_;
  Severity severity_;
  LintReport& report_;
};

void check_multiple_drivers(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.kind_conflict) {
      emit(name_list(net, st.writers.empty() ? st.readers : st.writers),
           st.label,
           "storage '" + st.label +
               "' is declared both as a register and as a combinational "
               "signal — pick one timing domain");
    }
    if (st.writers.size() < 2) continue;
    const char* what = st.kind == sim::PortKind::kRegister
                           ? "register written by"
                           : "bus/signal driven by";
    emit(name_list(net, st.writers), st.label,
         std::string(what) + " " + std::to_string(st.writers.size()) +
             " modules (" + name_list(net, st.writers) +
             ") — the surviving value depends on evaluation order");
  }
}

void check_comb_hazard(const Netlist& net, const Emitter& emit) {
  // A signal driver that is not a declared combinational module:
  // Gating::kSparse evaluates every flagged driver before any unflagged
  // module, so a flagged listener would read this driver's previous-cycle
  // value and the gated run would diverge from the dense one.
  for (const Storage& st : net.storages) {
    if (st.kind != sim::PortKind::kSignal) continue;
    for (const NodeId w : st.writers) {
      const NetNode& n = net.node(w);
      if (n.module != nullptr && !n.combinational) {
        emit(n.name, st.label,
             "signal '" + st.label + "' is driven by " + n.name +
                 ", which does not report combinational() — the gated "
                 "engine evaluates it after every flagged driver, so "
                 "same-cycle listeners can read a stale value");
      }
    }
  }
  // A listener registered before its driver reads the previous cycle's
  // value: the engine's serial order is the figure's broadcast order.
  for (const DataflowEdge& e : net.edges) {
    if (e.kind != sim::PortKind::kSignal) continue;
    const NetNode& src = net.node(e.src);
    const NetNode& dst = net.node(e.dst);
    if (!src.in_engine || !dst.in_engine) continue;
    if (src.engine_order > dst.engine_order) {
      emit(dst.name, net.storages[e.storage].label,
           "same-phase read-after-write hazard: " + dst.name +
               " (eval order " + std::to_string(dst.engine_order) +
               ") samples signal '" + net.storages[e.storage].label +
               "' before its driver " + src.name + " (order " +
               std::to_string(src.engine_order) + ") has spoken");
    }
  }
  // Combinational cycles: a loop of same-cycle dependencies has no valid
  // evaluation order at all.
  const std::size_t n = net.nodes.size();
  std::vector<std::vector<NodeId>> adj(n);
  for (const DataflowEdge& e : net.edges) {
    if (e.kind == sim::PortKind::kSignal) adj[e.src].push_back(e.dst);
  }
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<NodeId> stack;
  const auto dfs = [&](NodeId root, const auto& self) -> bool {
    color[root] = 1;
    stack.push_back(root);
    for (const NodeId next : adj[root]) {
      if (color[next] == 1) {
        std::vector<NodeId> cycle(
            std::find(stack.begin(), stack.end(), next), stack.end());
        emit(net.node(next).name, "",
             "combinational cycle: " + name_list(net, cycle) + " -> " +
                 net.node(next).name +
                 " — same-cycle dependencies form a loop");
        return true;
      }
      if (color[next] == 0 && self(next, self)) return true;
    }
    stack.pop_back();
    color[root] = 2;
    return false;
  };
  for (NodeId i = 0; i < n; ++i) {
    if (color[i] == 0 && dfs(i, dfs)) break;  // one cycle report suffices
  }
}

void check_dangling_port(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.writers.empty() && !st.readers.empty()) {
      emit(name_list(net, st.readers), st.label,
           "port '" + st.label + "' is read by " +
               name_list(net, st.readers) +
               " but never driven — only its initial value is observable");
    }
    if (st.readers.empty() && !st.writers.empty()) {
      emit(name_list(net, st.writers), st.label,
           "port '" + st.label + "' is written by " +
               name_list(net, st.writers) +
               " but nothing (module or environment tap) reads it",
           Severity::kNote);
    }
  }
}

void check_orphan_module(const Netlist& net, const Emitter& emit) {
  for (const NetNode& node : net.nodes) {
    if (node.module != nullptr && !node.in_engine) {
      emit(node.name, "",
           "module " + node.name +
               " was described but never registered with the Engine — it "
               "would not be simulated at all");
    }
  }
}

void check_wakeup_coverage(const Netlist& net, const Emitter& emit) {
  for (const DataflowEdge& e : net.edges) {
    const NetNode& src = net.node(e.src);
    const NetNode& dst = net.node(e.dst);
    if (src.module == nullptr || dst.module == nullptr) continue;
    if (!src.in_engine || !dst.in_engine) continue;
    if (dst.sleep != sim::SleepMode::kWakeable) continue;
    if (net.has_wakeup(e.src, e.dst)) continue;
    const Storage& st = net.storages[e.storage];
    // Retimed coverage: a combinational signal that re-presents a
    // registered value may be covered by an edge from the register's
    // writer — the writer was provably active the cycle the value was
    // staged, so its edge wakes the consumer in time.
    if (e.kind == sim::PortKind::kSignal) {
      bool covered = false;
      for (const sim::SignalDerivation& d : net.derivations) {
        if (d.signal != st.key) continue;
        const std::uint32_t reg = net.storage_of(d.reg);
        if (reg == Netlist::npos) continue;
        for (const NodeId w : net.storages[reg].writers) {
          if (net.has_wakeup(w, e.dst)) {
            covered = true;
            break;
          }
        }
        if (covered) break;
      }
      if (covered) continue;
    }
    emit(dst.name, st.label,
         "dataflow edge " + src.name + " -> " + dst.name + " via '" +
             st.label + "' has no covering wakeup edge: " + dst.name +
             " is wakeable, so Gating::kSparse can leave it asleep while "
             "this input reactivates — declare Engine::add_wakeup(" +
             src.name + ", " + dst.name + ")");
  }
}

void check_probe_coverage(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.sampled || st.writers.empty()) continue;
    // Only engine modules matter: environment taps are testbench harvest
    // conveniences, not simulated hardware the waveform layer could show.
    bool module_written = false;
    for (const NodeId w : st.writers) {
      if (net.node(w).module != nullptr) {
        module_written = true;
        break;
      }
    }
    if (!module_written) continue;
    emit(name_list(net, st.writers), st.label,
         "storage '" + st.label +
             "' is written but no writing port attaches a telemetry "
             "sampler — VCD waveforms of this design omit it");
  }
}

}  // namespace

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

std::size_t LintReport::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool LintReport::clean(Severity fail_at) const noexcept {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= fail_at) return false;
  }
  return true;
}

std::string LintReport::to_text() const {
  std::ostringstream out;
  out << design << ": " << errors() << " error(s), " << warnings()
      << " warning(s), " << count(Severity::kNote) << " note(s)\n";
  for (const Diagnostic& d : diagnostics) {
    out << "  [" << to_string(d.severity) << "] " << d.check << " @ "
        << d.module;
    if (!d.storage.empty()) out << " '" << d.storage << "'";
    out << ": " << d.message << "\n";
  }
  return out.str();
}

std::string LintReport::to_json() const {
  std::ostringstream out;
  out << "{\"design\": \"" << json_escape(design) << "\", \"counts\": {"
      << "\"errors\": " << errors() << ", \"warnings\": " << warnings()
      << ", \"notes\": " << count(Severity::kNote)
      << "}, \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out << ", ";
    out << "{\"check\": \"" << json_escape(d.check) << "\", \"severity\": \""
        << to_string(d.severity) << "\", \"module\": \""
        << json_escape(d.module) << "\", \"storage\": \""
        << json_escape(d.storage) << "\", \"message\": \""
        << json_escape(d.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

Linter::Linter()
    : severities_{{kMultipleDrivers, Severity::kError},
                  {kCombHazard, Severity::kError},
                  {kDanglingPort, Severity::kWarning},
                  {kOrphanModule, Severity::kError},
                  {kWakeupCoverage, Severity::kError},
                  {kProbeCoverage, Severity::kNote}} {}

void Linter::set_severity(std::string_view check, Severity s) {
  for (CheckSeverity& cs : severities_) {
    if (cs.check == check) {
      cs.severity = s;
      return;
    }
  }
  std::string known;
  for (const CheckSeverity& cs : severities_) {
    if (!known.empty()) known += ", ";
    known += cs.check;
  }
  throw std::invalid_argument("Linter::set_severity: unknown check '" +
                              std::string(check) + "' (known checks: " +
                              known + ")");
}

Severity Linter::severity_of(std::string_view check) const {
  for (const CheckSeverity& cs : severities_) {
    if (cs.check == check) return cs.severity;
  }
  return Severity::kError;
}

LintReport Linter::run(const Netlist& net, std::string design_name) const {
  LintReport report;
  report.design = std::move(design_name);
  const auto emitter = [&](std::string_view check) {
    return Emitter(check, severity_of(check), report);
  };
  check_multiple_drivers(net, emitter(kMultipleDrivers));
  check_comb_hazard(net, emitter(kCombHazard));
  check_dangling_port(net, emitter(kDanglingPort));
  check_orphan_module(net, emitter(kOrphanModule));
  check_wakeup_coverage(net, emitter(kWakeupCoverage));
  check_probe_coverage(net, emitter(kProbeCoverage));
  return report;
}

}  // namespace sysdp::analysis
