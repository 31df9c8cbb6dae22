// Connectivity introspection: modules declare the storage they touch.
//
// The engine simulates netlists whose correctness rests on structural
// invariants (single drivers, registered PE-to-PE links, wakeup edges
// covering every reactivating input).  Those invariants are facts about
// *connectivity*, so they can be checked statically — but the C++ object
// graph hides connectivity inside eval() bodies.  PortSet makes it
// explicit: Module::describe_ports reports every piece of shared storage
// the module reads or writes, identified by address.  The identity is a
// plain `const void*` key on purpose: array models keep hot state in
// struct-of-arrays arenas where "one register" is a lane across several
// vectors, and the address of any one stable element (conventionally the
// value field) names the lane.  Two modules that pass the same key are
// connected; that is the whole model.
//
// Port kinds mirror the engine's two timing domains:
//
//   * kRegister — two-phase state: written during eval (or staged for a
//     peer's commit) and observable from the *next* cycle.  Register<T>,
//     arena register rails, and cross-module launch/staging slots that a
//     peer latches at its clock edge all belong here.
//   * kSignal — combinational state: driven during eval and observable by
//     later modules in the *same* cycle.  Bus<T> and host-feed outputs
//     belong here; drivers must report Module::combinational().
//
// A combinational output that merely re-presents a registered value one
// cycle later (a bus driven from a register, a delivery latch) declares
// that with derives(): the analysis layer uses it to accept wakeup edges
// that originate at the register's writer instead of at the signal driver
// — the retiming argument (Leiserson & Saxe) made checkable.
//
// Ports double as *probe points* for the telemetry layer: each port may
// carry a Sampler, a closure returning the storage's committed value as an
// int64.  Declarations whose key is a pointer to an arithmetic type (the
// arena-lane convention) get a sampler automatically; struct-valued lanes
// attach one explicitly via the three-argument overloads, or stay opaque
// (empty sampler) — the probe-coverage lint check reports opaque written
// storage so unprobeable state is a visible, reviewed fact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sysdp::sim {

template <typename T>
class Register;
template <typename T>
class Bus;

/// Timing domain of a declared port.  See the file comment.
enum class PortKind : std::uint8_t { kRegister, kSignal };

/// Direction relative to the declaring module: kIn is read, kOut is
/// written/driven.
enum class PortDir : std::uint8_t { kIn, kOut };

/// Probe closure: returns the storage's committed value widened to int64.
/// Must be safe to call whenever the engine is between cycles (after any
/// commit phase); an empty Sampler marks the port as opaque to probes.
using Sampler = std::function<std::int64_t()>;

/// One declared storage access.  `storage` is the identity key: equal keys
/// mean the same physical register/signal.
struct Port {
  const void* storage = nullptr;
  PortKind kind = PortKind::kRegister;
  PortDir dir = PortDir::kIn;
  std::string label;  ///< human-readable name, e.g. "r[3]" or "bus"
  Sampler sample;     ///< optional probe; empty when the lane is opaque
};

/// A combinational output re-presenting a registered value: `signal` is a
/// kSignal out-port key, `reg` the kRegister key it is derived from.
struct SignalDerivation {
  const void* signal = nullptr;
  const void* reg = nullptr;
};

/// Collector passed to Module::describe_ports (and, for testbench-side
/// taps, filled directly by array models' describe_environment).
class PortSet {
 public:
  /// Raw-key declarations — use these for arena lanes, naming the lane by
  /// the address of one stable element (conventionally the value field).
  /// Arithmetic-typed keys get an automatic sampler (the key *is* the
  /// value field); other key types stay opaque unless the three-argument
  /// overloads below attach an explicit one.
  template <typename T>
  void reads_register(const T* key, std::string label) {
    add(key, PortKind::kRegister, PortDir::kIn, std::move(label),
        auto_sampler(key));
  }
  template <typename T>
  void writes_register(const T* key, std::string label) {
    add(key, PortKind::kRegister, PortDir::kOut, std::move(label),
        auto_sampler(key));
  }
  template <typename T>
  void reads_signal(const T* key, std::string label) {
    add(key, PortKind::kSignal, PortDir::kIn, std::move(label),
        auto_sampler(key));
  }
  template <typename T>
  void drives_signal(const T* key, std::string label) {
    add(key, PortKind::kSignal, PortDir::kOut, std::move(label),
        auto_sampler(key));
  }

  /// Explicit-sampler declarations for struct-valued lanes (a flit, a
  /// token): the closure projects whatever scalar is worth waveform space.
  template <typename T>
  void reads_register(const T* key, std::string label, Sampler sample) {
    add(key, PortKind::kRegister, PortDir::kIn, std::move(label),
        std::move(sample));
  }
  template <typename T>
  void writes_register(const T* key, std::string label, Sampler sample) {
    add(key, PortKind::kRegister, PortDir::kOut, std::move(label),
        std::move(sample));
  }
  template <typename T>
  void reads_signal(const T* key, std::string label, Sampler sample) {
    add(key, PortKind::kSignal, PortDir::kIn, std::move(label),
        std::move(sample));
  }
  template <typename T>
  void drives_signal(const T* key, std::string label, Sampler sample) {
    add(key, PortKind::kSignal, PortDir::kOut, std::move(label),
        std::move(sample));
  }

  /// Typed conveniences for the discrete primitives.  Integer-valued
  /// registers and buses sample themselves; other payloads stay opaque.
  template <typename T>
  void reads(const Register<T>& r, std::string label) {
    add(&r, PortKind::kRegister, PortDir::kIn, std::move(label),
        register_sampler(r));
  }
  template <typename T>
  void writes(const Register<T>& r, std::string label) {
    add(&r, PortKind::kRegister, PortDir::kOut, std::move(label),
        register_sampler(r));
  }
  template <typename T>
  void reads(const Bus<T>& b, std::string label) {
    add(&b, PortKind::kSignal, PortDir::kIn, std::move(label),
        bus_sampler(b));
  }
  template <typename T>
  void drives(const Bus<T>& b, std::string label) {
    add(&b, PortKind::kSignal, PortDir::kOut, std::move(label),
        bus_sampler(b));
  }

  /// Declare that out-signal `signal` is a combinational function of the
  /// committed value of register `reg` (and of nothing else that can
  /// reactivate a consumer).  Wakeup-coverage then accepts an edge from
  /// the register's writer in place of one from the signal driver.
  void derives(const void* signal, const void* reg) {
    derivations_.push_back(SignalDerivation{signal, reg});
  }

  [[nodiscard]] const std::vector<Port>& ports() const noexcept {
    return ports_;
  }
  /// Drop every declaration, keeping the storage: a sweep over many
  /// modules reuses one collector instead of reallocating per module.
  void clear() noexcept {
    ports_.clear();
    derivations_.clear();
  }
  [[nodiscard]] const std::vector<SignalDerivation>& derivations()
      const noexcept {
    return derivations_;
  }

 private:
  template <typename T>
  [[nodiscard]] static Sampler auto_sampler(const T* key) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      return [key]() -> std::int64_t {
        return static_cast<std::int64_t>(*key);
      };
    } else {
      (void)key;  // opaque lane (struct payload or type-erased void key)
      return {};
    }
  }

  template <typename T>
  [[nodiscard]] static Sampler register_sampler(const Register<T>& r) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      return [&r]() -> std::int64_t {
        return static_cast<std::int64_t>(r.read());
      };
    } else {
      (void)r;
      return {};
    }
  }

  template <typename T>
  [[nodiscard]] static Sampler bus_sampler(const Bus<T>& b) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      return [&b]() -> std::int64_t {
        return static_cast<std::int64_t>(b.last_value());
      };
    } else {
      (void)b;
      return {};
    }
  }

  void add(const void* key, PortKind kind, PortDir dir, std::string label,
           Sampler sample) {
    ports_.push_back(Port{key, kind, dir, std::move(label),
                          std::move(sample)});
  }

  std::vector<Port> ports_;
  std::vector<SignalDerivation> derivations_;
};

}  // namespace sysdp::sim
