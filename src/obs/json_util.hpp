// Minimal JSON rendering helpers shared by the obs emitters.
//
// The repo's JSON documents (sysdp-metrics-v2, chrome traces, bench JSON)
// are all *written*, never parsed, so a couple of inline formatters beat a
// JSON library dependency.
#pragma once

#include <cstdio>
#include <string>

namespace sysdp::obs {

/// Escape `s` for embedding inside a JSON string literal (no quotes added).
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Render a double with enough digits to round-trip utilisation ratios.
[[nodiscard]] inline std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  std::string out = buf;
  // JSON has no inf/nan; clamp to null like python's json.dumps would fail
  // on — callers never pass these, but a crash-proof fallback is cheaper
  // than an assert in an emitter.
  if (out.find("inf") != std::string::npos ||
      out.find("nan") != std::string::npos) {
    return "null";
  }
  return out;
}

}  // namespace sysdp::obs
