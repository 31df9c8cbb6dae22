// Per-lane weight bindings of the SIMD-batched executors, lane-planar.
//
// On a parameterised tape each lane binds its own table of P =
// params.size() weights, stored contiguously at [l*P, (l+1)*P): bind(lane)
// is one sequential copy.  A lane-major table (`[param*B + lane]`, like the
// slot file) would make it a scatter dirtying one 64-byte line per
// parameter.  Replay pays instead: a rebound op reads its B weights at
// stride P rather than as one row (docs/ARCHITECTURE.md has the numbers).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/engine.hpp"  // Divergence
#include "compile/program.hpp"

namespace sysdp::compile {

class WeightPlanes {
 public:
  /// Borrows `net`.  Every lane starts oracle-bound, its plane a copy of
  /// `net.params`.  `owner` prefixes error messages.
  WeightPlanes(const CompiledNetlist& net, std::uint32_t lanes,
               const char* owner)
      : net_(&net), owner_(owner), oracle_bound_(lanes, 1) {
    planes_.reserve(net.params.size() * lanes);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      planes_.insert(planes_.end(), net.params.begin(), net.params.end());
    }
  }

  /// Install a weight table on one lane.  Throws std::invalid_argument on
  /// a non-parameterised tape, a bad lane, or a wrong-length table.
  void bind(std::uint32_t lane, const std::vector<Cost>& weights) {
    if (!net_->parameterised) {
      fail("bind: tape was lowered without a parameter plane "
           "(LowerOptions::parameterise)");
    }
    check_lane(lane, "bind");
    if (weights.size() != stride()) {
      fail("bind: weight table has " + std::to_string(weights.size()) +
           " entries, tape has " + std::to_string(stride()) + " parameters");
    }
    std::copy(weights.begin(), weights.end(),
              planes_.data() + lane * stride());
    // A memcmp underneath: a table that differs early costs no second pass.
    set_oracle_bound(lane, weights == net_->params);
  }

  /// Restore lane `lane` to the oracle's weight binding.
  void bind_oracle(std::uint32_t lane) {
    check_lane(lane, "bind_oracle");
    std::copy(net_->params.begin(), net_->params.end(),
              planes_.data() + lane * stride());
    set_oracle_bound(lane, true);
  }

  /// True while lane `lane` replays the oracle's own weight binding.
  [[nodiscard]] bool oracle_bound(std::uint32_t lane) const {
    return oracle_bound_[lane] != 0;
  }

  /// Compare lane `lane`'s declared outputs in the lane-major slot file
  /// `slots` with the oracle's observed values.  Throws std::logic_error
  /// if the lane is not oracle-bound — the recorded expectations describe
  /// the oracle binding only.
  [[nodiscard]] Divergence verify_outputs(const Cost* slots,
                                          std::uint32_t lane) const {
    if (!oracle_bound(lane)) {
      throw std::logic_error(
          std::string(owner_) + "::verify_outputs: lane " +
          std::to_string(lane) + " is not oracle-bound; recorded " +
          "expectations describe the oracle's weight binding only");
    }
    for (std::uint64_t i = 0; i < net_->outputs.size(); ++i) {
      const Output& out = net_->outputs[i];
      const Cost got =
          slots[std::size_t{out.slot} * oracle_bound_.size() + lane];
      if (got != out.expected) return {true, i, got, out.expected, {}, {}};
    }
    return {};
  }

  /// The planes (lane l, parameter p at `[l*stride() + p]`) while some lane
  /// is rebound; nullptr while every plane equals the baked immediates, so
  /// replay can take the immediate path and never stream them.
  [[nodiscard]] const Cost* tables() const noexcept {
    return rebound_lanes_ != 0 ? planes_.data() : nullptr;
  }
  [[nodiscard]] std::size_t stride() const noexcept {
    return net_->params.size();
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(std::string(owner_) + "::" + what);
  }
  void check_lane(std::uint32_t lane, const char* what) const {
    if (lane >= oracle_bound_.size()) {
      fail(std::string(what) + ": lane " + std::to_string(lane) +
           " out of range");
    }
  }
  void set_oracle_bound(std::uint32_t lane, bool bound) {
    if (oracle_bound(lane) == bound) return;
    oracle_bound_[lane] = bound ? 1 : 0;
    rebound_lanes_ = bound ? rebound_lanes_ - 1 : rebound_lanes_ + 1;
  }

  const CompiledNetlist* net_;
  const char* owner_;
  AlignedVec<Cost> planes_;
  std::vector<std::uint8_t> oracle_bound_;
  std::uint32_t rebound_lanes_ = 0;  ///< lanes not oracle-bound
};

}  // namespace sysdp::compile
