// Whole-token argument parsing shared by the command-line tools.
//
// std::stoull and std::atol read a prefix ("2x" is 2), wrap a sign ("-3"
// is 2^64 - 3) and report a bad token only as "stoull".  Every numeric
// argument of sysdp_tool and sysdp_trace goes through unsigned_arg
// instead: the whole token must be decimal digits and the value must be
// at least lo.  A malformed command line throws UsageError, whose message
// names the offending argument; the tools print it and exit 2.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace sysdp::examples {

/// A command line the tool refuses before doing any work.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `text` read whole as an unsigned decimal >= lo: no sign, no whitespace,
/// no suffix, no overflow.  nullopt otherwise.
[[nodiscard]] inline std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t lo = 0) {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo) {
    return std::nullopt;
  }
  return v;
}

/// parse_unsigned, or throw UsageError naming the argument `name`.
[[nodiscard]] inline std::uint64_t unsigned_arg(std::string_view name,
                                               std::string_view text,
                                               std::uint64_t lo = 0) {
  if (const auto v = parse_unsigned(text, lo)) return *v;
  const std::string want =
      lo > 0 ? "an integer >= " + std::to_string(lo) : "an unsigned integer";
  throw UsageError(std::string(name) + " takes " + want + ", got '" +
                   std::string(text) + "'");
}

}  // namespace sysdp::examples
