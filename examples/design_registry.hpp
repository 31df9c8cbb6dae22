// Shared registry of the deterministic design instances the CLI tools
// operate on.
//
// sysdp_lint (netlist checks) and sysdp_trace (telemetry capture) must
// agree on which concrete arrays exist, at which sizes, with which seeds:
// the lint gate certifies exactly the netlists the trace tool records.
// Each entry builds one array behind a small type-erased interface that
// exposes the uniform surface every engine-backed model now implements —
// elaborate(), describe_environment(), run(sim::Engine&), num_pes(),
// pe_busy() — plus the run statistics the tools report.
//
// All sizes and seeds are fixed here so every run of every tool sees the
// same instances.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/run_result.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/lower.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"

namespace sysdp::examples {

/// Deterministic instance inputs: the tools must see the same arrays
/// every run, so all sizes and seeds are fixed by the registry.
inline std::vector<Cost> deterministic_costs(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  std::uniform_int_distribution<Cost> dist(1, 50);
  std::vector<Cost> out(n);
  for (auto& x : out) x = dist(rng);
  return out;
}

/// The array-shape-independent outcome of one run.
struct RunStats {
  sim::Cycle cycles = 0;
  std::uint64_t busy_steps = 0;
  std::size_t num_pes = 0;
  std::uint64_t active_evals = 0;
  std::uint64_t dense_evals = 0;
  std::uint64_t trace_dropped = 0;

  [[nodiscard]] double utilization_wall() const noexcept {
    if (cycles == 0 || num_pes == 0) return 0.0;
    return static_cast<double>(busy_steps) /
           (static_cast<double>(cycles) * static_cast<double>(num_pes));
  }
};

template <typename V>
RunStats to_stats(const RunResult<V>& r) {
  RunStats s;
  s.cycles = r.cycles;
  s.busy_steps = r.busy_steps;
  s.num_pes = r.num_pes;
  s.active_evals = r.active_evals;
  s.dense_evals = r.dense_evals;
  s.trace_dropped = r.trace_dropped;
  return s;
}

/// One constructed array behind a uniform interface.
class DesignInstance {
 public:
  virtual ~DesignInstance() = default;

  /// Build modules and wiring into a fresh engine without stepping.
  virtual void elaborate(sim::Engine& engine) = 0;
  /// Testbench-side taps for analysis::capture.
  virtual void describe_environment(sim::PortSet& ports) const = 0;
  /// Run to completion on a fresh caller-constructed engine (attach any
  /// observers before calling).  Fills stats().
  virtual void run(sim::Engine& engine) = 0;
  /// PE count (valid before elaboration).
  [[nodiscard]] virtual std::size_t num_pes() const = 0;
  /// Monotone per-PE busy counter (0 before elaboration).
  [[nodiscard]] virtual std::uint64_t pe_busy(std::size_t pe) const = 0;
  /// Statistics of the last run() (default-constructed before).
  [[nodiscard]] virtual const RunStats& stats() const = 0;
  /// Lower the design to a compiled flat tape (compile::lower_array).
  /// Consumes the instance's freshness: the internal oracle run IS the
  /// array's one run, so call this instead of — never after — run().
  /// Pass LowerOptions{.parameterise = true} to emit the parameter plane
  /// for rebinding/batched replay.
  [[nodiscard]] virtual compile::Lowered lower(
      const compile::LowerOptions& opt = {}) = 0;
};

/// Adapter over the duck-typed array surface.  `keepalive` owns any state
/// the array borrows by reference (e.g. Design 3's node-value graph).
template <typename Array>
class TypedInstance final : public DesignInstance {
 public:
  explicit TypedInstance(std::unique_ptr<Array> arr,
                         std::shared_ptr<void> keepalive = nullptr)
      : arr_(std::move(arr)), keepalive_(std::move(keepalive)) {}

  void elaborate(sim::Engine& engine) override { arr_->elaborate(engine); }
  void describe_environment(sim::PortSet& ports) const override {
    arr_->describe_environment(ports);
  }
  void run(sim::Engine& engine) override {
    const auto result = arr_->run(engine);
    if constexpr (requires { result.stats; }) {
      stats_ = to_stats(result.stats);
    } else {
      stats_ = to_stats(result);
    }
  }
  [[nodiscard]] std::size_t num_pes() const override {
    return arr_->num_pes();
  }
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const override {
    return arr_->pe_busy(pe);
  }
  [[nodiscard]] const RunStats& stats() const override { return stats_; }
  [[nodiscard]] compile::Lowered lower(
      const compile::LowerOptions& opt = {}) override {
    return compile::lower_array(*arr_, opt);
  }

 private:
  std::unique_ptr<Array> arr_;
  std::shared_ptr<void> keepalive_;
  RunStats stats_;
};

struct DesignSpec {
  std::string name;
  std::function<std::unique_ptr<DesignInstance>()> make;
};

/// Every shipped engine-backed array at its fixed tool sizes.
inline std::vector<DesignSpec> all_designs() {
  std::vector<DesignSpec> out;
  // Design 1: distributed-control string-product array.
  for (auto [q, m] : {std::pair<std::size_t, std::size_t>{2, 3}, {4, 6}}) {
    std::string name = "design1-modular[q" + std::to_string(q) + ",m" +
                       std::to_string(m) + "]";
    out.push_back({name, [q = q, m = m] {
                     Rng rng(11 * q + m);
                     return std::make_unique<TypedInstance<Design1Modular>>(
                         std::make_unique<Design1Modular>(
                             random_matrix_string(q, m, rng),
                             deterministic_costs(m, q)));
                   }});
  }
  // Design 2: broadcast-bus array.
  for (auto [q, m] : {std::pair<std::size_t, std::size_t>{2, 3}, {3, 5}}) {
    std::string name = "design2-modular[q" + std::to_string(q) + ",m" +
                       std::to_string(m) + "]";
    out.push_back({name, [q = q, m = m] {
                     Rng rng(13 * q + m);
                     return std::make_unique<TypedInstance<Design2Modular>>(
                         std::make_unique<Design2Modular>(
                             random_matrix_string(q, m, rng),
                             deterministic_costs(m, q + 7)));
                   }});
  }
  // Design 3: feedback array over node-value graphs.  The array borrows
  // the graph by reference, so the instance keeps it alive.
  for (auto [stages, width] :
       {std::pair<std::size_t, std::size_t>{3, 2}, {6, 4}}) {
    std::string name = "design3-modular[s" + std::to_string(stages) + ",w" +
                       std::to_string(width) + "]";
    out.push_back({name, [stages = stages, width = width] {
                     Rng rng(17 * stages + width);
                     auto graph = std::make_shared<NodeValueGraph>(
                         traffic_control_instance(stages, width, rng));
                     auto arr = std::make_unique<Design3Modular>(*graph);
                     return std::make_unique<TypedInstance<Design3Modular>>(
                         std::move(arr), std::move(graph));
                   }});
  }
  // Generic triangular family: one instance per rule (the chain rule is
  // the GKT array).
  for (std::size_t n : {4u, 7u}) {
    using Bst = TriangularModularArray<BstRule>;
    using Poly = TriangularModularArray<PolygonRule>;
    using Chain = TriangularModularArray<ChainRule>;
    out.push_back({"triangular-bst[n" + std::to_string(n) + "]", [n] {
                     return std::make_unique<TypedInstance<Bst>>(
                         std::make_unique<Bst>(
                             BstRule(deterministic_costs(n, n)), n));
                   }});
    out.push_back({"triangular-polygon[n" + std::to_string(n) + "]", [n] {
                     return std::make_unique<TypedInstance<Poly>>(
                         std::make_unique<Poly>(
                             PolygonRule(deterministic_costs(n, n + 3)), n));
                   }});
    out.push_back({"triangular-chain[n" + std::to_string(n) + "]", [n] {
                     return std::make_unique<TypedInstance<Chain>>(
                         std::make_unique<Chain>(
                             ChainRule(deterministic_costs(n + 1, n + 5)),
                             n));
                   }});
  }
  return out;
}

}  // namespace sysdp::examples
