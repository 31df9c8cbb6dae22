// Activity statistics for measured processor utilisation.
//
// The paper's PU formulas (eq. 9 and Proposition 1) are analytic; the
// simulator additionally *measures* PU by counting, per PE, the cycles in
// which useful work (a multiply-accumulate / add-compare step) was done.
// Measured PU = busy-PE-cycles / (elapsed cycles * number of PEs), which is
// exactly the paper's "ratio of serial iterations to (parallel iterations *
// processors)" when one iteration does one unit of work.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/module.hpp"

namespace sysdp::sim {

class ActivityStats {
 public:
  explicit ActivityStats(std::size_t num_pes) : busy_(num_pes, 0) {}

  /// Record that PE `pe` did one unit of useful work this cycle.
  void mark_busy(std::size_t pe) {
    ++busy_.at(pe);  // at() first: an out-of-range pe must not bump total_
    ++total_;
  }

  [[nodiscard]] std::size_t num_pes() const noexcept { return busy_.size(); }
  [[nodiscard]] std::uint64_t busy_cycles(std::size_t pe) const {
    return busy_.at(pe);
  }
  /// Incrementally maintained sum of busy_cycles over all PEs — O(1), so
  /// per-cycle callers (utilisation timelines, benches) don't pay an
  /// O(num_pes) sweep per query.
  [[nodiscard]] std::uint64_t total_busy() const noexcept { return total_; }

  /// Measured processor utilisation over `elapsed` cycles.
  [[nodiscard]] double utilization(Cycle elapsed) const noexcept {
    if (elapsed == 0 || busy_.empty()) return 0.0;
    return static_cast<double>(total_busy()) /
           (static_cast<double>(elapsed) * static_cast<double>(busy_.size()));
  }

  void reset() {
    for (auto& b : busy_) b = 0;
    total_ = 0;
  }

 private:
  std::vector<std::uint64_t> busy_;
  std::uint64_t total_ = 0;  ///< cached sum of busy_, kept by mark_busy
};

/// Monotonic wall-clock stopwatch for the throughput counters below.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Simulator throughput over one run: how fast the *simulator* chewed
/// through virtual time, as opposed to ActivityStats, which measures the
/// *simulated hardware's* utilisation.  Benches record it alongside the
/// paper metrics.
struct ThroughputStats {
  Cycle cycles = 0;                ///< virtual cycles simulated
  std::uint64_t module_evals = 0;  ///< module (PE/host) evals performed
  double wall_seconds = 0.0;       ///< host wall-clock consumed

  [[nodiscard]] double cycles_per_sec() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double evals_per_sec() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(module_evals) / wall_seconds
               : 0.0;
  }
};

/// Wall-clock comparison of one sweep run serially and through the batch
/// runner — the headline number BENCH_SIM.json records.
struct BatchSpeedup {
  std::size_t jobs = 0;
  std::size_t lanes = 1;          ///< pool lanes used by the batched run
  double serial_seconds = 0.0;
  double batch_seconds = 0.0;

  [[nodiscard]] double speedup() const noexcept {
    return batch_seconds > 0.0 ? serial_seconds / batch_seconds : 0.0;
  }
};

}  // namespace sysdp::sim
