// VCD (Value Change Dump) waveform writer for any modular array.
//
// VcdSink is an EngineObserver that, at elaboration, walks every
// registered module's describe_ports() declarations (the introspection the
// analysis layer already relies on) and builds a probe per *sampled*
// output port: arithmetic arena lanes and integer registers/buses sample
// automatically, struct-valued lanes wherever the model attached an
// explicit Sampler.  Each completed cycle it samples all probes and dumps
// the changes, producing a standard IEEE 1364 VCD document loadable in
// GTKWave — one $scope per module, one 64-bit integer var per storage key.
//
// Determinism: probes are collected in registration × declaration order
// and deduplicated by storage key (first declaration wins), and samples
// read committed state on cycle boundaries — so the document is
// byte-identical across dense/sparse engine modes whenever the run itself
// is bit-identical (the repo's standing determinism contract), and
// golden-file testable.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/observer.hpp"
#include "sim/port.hpp"

namespace sysdp::obs {

struct VcdOptions {
  std::string timescale = "1ns";  ///< one engine cycle maps to one tick
  bool include_inputs = false;    ///< probe kIn declarations too (default
                                  ///< outputs only: inputs are someone
                                  ///< else's outputs or environment ties)
};

class VcdSink final : public sim::EngineObserver {
 public:
  explicit VcdSink(std::string top = "sysdp", VcdOptions options = {});
  VcdSink(const VcdSink&) = delete;
  VcdSink& operator=(const VcdSink&) = delete;
  VcdSink(VcdSink&&) = delete;
  VcdSink& operator=(VcdSink&&) = delete;
  /// A streaming sink flushes and closes its file here, so the document on
  /// disk is well-formed (every completed cycle present, cleanly
  /// terminated) even when a run throws mid-replay.
  ~VcdSink();

  void on_elaborated(const sim::Engine& engine) override;
  void on_cycle(const sim::Engine& engine, sim::Cycle t) override;

  /// Stream the document to `path` incrementally: the header and the dump
  /// so far are written immediately, then every completed cycle's changes
  /// as they happen.  VCD is an append-only format, so the file is valid
  /// at every cycle boundary — if the run throws, the destructor closes a
  /// well-formed document covering everything up to the failing cycle.
  /// Call before or after elaboration; throws std::runtime_error if the
  /// file cannot be opened.  write_file() remains available regardless.
  void stream_to(const std::string& path);

  /// Flush and close the stream, reporting I/O errors by exception (the
  /// destructor closes silently instead).  No-op when not streaming.
  void close();

  /// Probes collected at elaboration (0 before the first step()).
  [[nodiscard]] std::size_t num_signals() const noexcept {
    return probes_.size();
  }

  /// The complete VCD document (header + dump so far).
  [[nodiscard]] std::string str() const { return header_ + body_; }

  /// Write str() to `path`; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  /// Identifier code for probe `index`: base-94 over the printable ASCII
  /// identifier alphabet the VCD grammar allows.  Public statics: the
  /// compiled-replay waveform sink (obs/replay.hpp) renders through the
  /// same primitives so signal names and value encodings match the
  /// interpreted documents exactly.
  [[nodiscard]] static std::string id_code(std::size_t index);
  /// Replace everything outside [A-Za-z0-9_] so GTKWave parses the name.
  [[nodiscard]] static std::string sanitize(const std::string& name);
  /// Two's-complement binary rendering ("b... ") of a sample.
  static void append_value(std::string& out, std::int64_t value,
                           const std::string& id);

 private:
  struct Probe {
    sim::Sampler sample;
    std::string id;        ///< VCD identifier code
    std::int64_t last = 0; ///< value at the previous dump
  };

  /// Tee everything not yet flushed to the stream, if one is open.
  void flush_stream();

  std::string top_;
  VcdOptions options_;
  std::string header_;
  std::string body_;
  std::vector<Probe> probes_;
  std::ofstream stream_;
  std::size_t flushed_header_ = 0;
  std::size_t flushed_body_ = 0;
  bool elaborated_ = false;
};

}  // namespace sysdp::obs
