// Module base class for clocked hardware models.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace sysdp::sim {

class Engine;
class PortSet;

/// Clock cycle index.
using Cycle = std::uint64_t;

/// How a module uses quiescence under Gating::kSparse — declared alongside
/// quiescent() so the static wakeup-coverage check knows which modules need
/// their inputs covered by Engine::add_wakeup edges.
enum class SleepMode : std::uint8_t {
  /// quiescent() is never true (the Module default): the module runs every
  /// cycle, so no incoming dataflow needs wakeup coverage.
  kNever,
  /// Once quiescent, quiescent forever (a drained PE, an exhausted feed):
  /// no input can ever reactivate it, so none needs coverage.
  kRetire,
  /// May go quiescent and later reactivate: every incoming dataflow edge
  /// must be covered by a wakeup edge, or the gated run can diverge.
  kWakeable,
};

/// A clocked hardware block.  Each cycle the engine calls eval() on every
/// module (combinational phase: read registers/buses, stage register
/// writes), then commit() on every module (clock edge: latch registers).
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Combinational phase for cycle `t`.
  virtual void eval(Cycle t) = 0;

  /// Clock edge: latch all registers staged during eval().
  virtual void commit() = 0;

  /// True if eval() *produces* state other modules read in the same cycle
  /// (bus drivers, host input feeds).  Gating::kSparse evaluates every
  /// active driver, in registration order, before any unflagged module, so
  /// modules that only *read* same-cycle driver outputs (bus listeners)
  /// see every driver's output whatever their own registration position.
  /// Registered state (Register<T>) never needs this flag: reads see
  /// committed values only.
  [[nodiscard]] virtual bool combinational() const noexcept { return false; }

  /// Quiescence hook for the activity-gated engine (Gating::kSparse).
  /// Return true only when BOTH hold:
  ///
  ///   1. eval()/commit() are observational no-ops right now: they would
  ///      change no committed register value, drive no bus, mark no stats
  ///      and write no state another module reads.  (A PE holding no valid
  ///      token whose inputs are invalid is the canonical case.)
  ///   2. That stays true until a module with a declared wakeup edge into
  ///      this one (Engine::add_wakeup) goes non-quiescent — i.e. every
  ///      input that could re-activate this module is covered by an edge.
  ///
  /// The answer must depend only on state this module itself mutates (its
  /// own registers/counters): the engine queries it after the commit phase
  /// and caches the result while the module sleeps.  Default: never
  /// quiescent, which is always safe (the module simply never gets
  /// skipped).
  [[nodiscard]] virtual bool quiescent() const noexcept { return false; }

  /// Declared counterpart of quiescent(): a module that overrides
  /// quiescent() must also report how it sleeps (kRetire or kWakeable), or
  /// the wakeup-coverage lint check cannot see that its inputs need edges.
  [[nodiscard]] virtual SleepMode sleep_mode() const noexcept {
    return SleepMode::kNever;
  }

  /// Connectivity introspection: declare every register/signal this module
  /// reads or writes (see sim/port.hpp).  The default declares nothing,
  /// which keeps hand-rolled test modules working but makes the module
  /// opaque to the static-analysis layer.
  virtual void describe_ports(PortSet& ports) const { (void)ports; }

  /// Name for VCD scopes, lint reports and compiled provenance.  A module
  /// constructed without one formats it on demand, so thousands of cells
  /// build no string until something asks.
  [[nodiscard]] std::string name() const {
    return name_.empty() ? format_name() : name_;
  }

 protected:
  Module() = default;  ///< for modules that override format_name()
  [[nodiscard]] virtual std::string format_name() const { return {}; }

 private:
  friend class Engine;

  std::string name_;
  /// Set by Engine::add; trusted only where the engine's module list holds
  /// this module at that index.
  std::uint32_t engine_index_ = 0;
};

}  // namespace sysdp::sim
