// Static checks over every shipped systolic-array model.
//
//   sysdp_lint [--tape] [--json] [--fail-on <error|warning|note>]
//              [--design <substr>] [--list]
//
// Two gates share this driver:
//
//   default     — netlist lint.  Elaborates each example array (Designs
//                 1-3, the GKT chain array, and the generic triangular
//                 family) at the registry's fixed sizes on a fresh engine,
//                 captures the dataflow netlist, and runs the analysis
//                 checks (schema sysdp-lint-v1).
//   --tape      — tape verification.  Lowers each instance to a compiled
//                 flat netlist and runs analysis::TapeVerifier over three
//                 variants per design: the raw SSA tape (#ssa), the
//                 live-range-compacted tape (#compacted), and a
//                 parameterised tape re-verified under a perturbed weight
//                 binding (#rebound) — proving the static guarantees hold
//                 for rebound replays, not just the oracle's weights
//                 (schema sysdp-tapelint-v1).
//
// Text output is one report per design (per tape variant with --tape);
// --json emits one document with all reports, which CI archives.  The
// exit status is nonzero if any report has a finding at or above the
// --fail-on severity (default: error), so both runs gate merges exactly
// like tests.
//
// The instance set is examples/design_registry.hpp — shared with
// sysdp_trace, so the gates certify exactly the netlists and tapes the
// trace tool records.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/netlist.hpp"
#include "analysis/tape_verify.hpp"
#include "compile/lower.hpp"
#include "design_registry.hpp"
#include "sim/engine.hpp"

namespace {

using namespace sysdp;

int usage() {
  std::fprintf(stderr,
               "usage: sysdp_lint [--tape] [--json]\n"
               "                  [--fail-on <error|warning|note>]\n"
               "                  [--design <substring>] [--list]\n");
  return 2;
}

/// Elaborate one registry instance into a fresh gated engine, capture the
/// netlist with the design's environment taps, and run all checks.
analysis::LintReport lint_design(const examples::DesignSpec& spec) {
  const auto inst = spec.make();
  sim::Engine engine(sim::Gating::kSparse);
  inst->elaborate(engine);
  analysis::CaptureOptions opts;
  inst->describe_environment(opts.environment);
  return analysis::Linter().run(analysis::capture(engine, opts), spec.name);
}

/// Verify a parameterised lowering of `spec` under a perturbed rebinding
/// (every finite oracle weight +1 — deterministic, and different enough
/// that a verifier accidentally reading the baked immediates would certify
/// the wrong value ranges).
analysis::TapeVerifyReport verify_rebound(const examples::DesignSpec& spec) {
  compile::LowerOptions opt;
  opt.parameterise = true;
  const auto low = spec.make()->lower(opt);
  analysis::TapeVerifyOptions vopt;
  vopt.bound_weights = low.net.params;
  for (Cost& w : vopt.bound_weights) {
    if (!is_inf(w) && !is_neg_inf(w)) w += 1;
  }
  return analysis::verify_tape(low.net, spec.name + "#rebound", vopt);
}

/// Lower one registry instance three ways and verify each tape: the SSA
/// tape, the compacted tape, and a parameterised tape under a perturbed
/// rebinding.
std::vector<analysis::TapeVerifyReport> verify_design(
    const examples::DesignSpec& spec) {
  std::vector<analysis::TapeVerifyReport> out;

  compile::LowerOptions ssa;
  ssa.compact = false;
  out.push_back(analysis::verify_tape(spec.make()->lower(ssa).net,
                                      spec.name + "#ssa"));

  out.push_back(analysis::verify_tape(spec.make()->lower({}).net,
                                      spec.name + "#compacted"));

  out.push_back(verify_rebound(spec));
  return out;
}

bool parse_severity(std::string_view s, analysis::Severity& out) {
  if (s == "error") {
    out = analysis::Severity::kError;
  } else if (s == "warning") {
    out = analysis::Severity::kWarning;
  } else if (s == "note") {
    out = analysis::Severity::kNote;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list = false;
  bool tape = false;
  std::string filter;
  analysis::Severity fail_at = analysis::Severity::kError;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--tape") {
      tape = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--design" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg == "--fail-on" && i + 1 < argc) {
      if (!parse_severity(argv[++i], fail_at)) return usage();
    } else {
      return usage();
    }
  }

  const auto designs = examples::all_designs();
  if (list) {
    for (const auto& d : designs) std::printf("%s\n", d.name.c_str());
    return 0;
  }

  if (tape) {
    std::vector<analysis::TapeVerifyReport> reports;
    for (const auto& d : designs) {
      if (!filter.empty() && d.name.find(filter) == std::string::npos) {
        continue;
      }
      for (auto& r : verify_design(d)) reports.push_back(std::move(r));
    }
    if (reports.empty()) {
      std::fprintf(stderr, "sysdp_lint: no design matches '%s'\n",
                   filter.c_str());
      return 2;
    }
    std::size_t errors = 0;
    std::size_t warnings = 0;
    bool failed = false;
    for (const auto& r : reports) {
      errors += r.errors();
      warnings += r.warnings();
      failed = failed || !r.clean(fail_at);
    }
    if (json) {
      std::string doc = "{\"schema\": \"sysdp-tapelint-v1\", \"tapes\": [";
      for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0) doc += ", ";
        doc += reports[i].to_json();
      }
      doc += "], \"total_errors\": " + std::to_string(errors) +
             ", \"total_warnings\": " + std::to_string(warnings) + "}";
      std::printf("%s\n", doc.c_str());
    } else {
      for (const auto& r : reports) std::printf("%s", r.to_text().c_str());
      std::printf("sysdp_lint: %zu tape(s), %zu error(s), %zu warning(s)\n",
                  reports.size(), errors, warnings);
    }
    return failed ? 1 : 0;
  }

  std::vector<analysis::LintReport> reports;
  for (const auto& d : designs) {
    if (!filter.empty() && d.name.find(filter) == std::string::npos) continue;
    reports.push_back(lint_design(d));
  }
  if (reports.empty()) {
    std::fprintf(stderr, "sysdp_lint: no design matches '%s'\n",
                 filter.c_str());
    return 2;
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  bool failed = false;
  for (const auto& r : reports) {
    errors += r.errors();
    warnings += r.warnings();
    failed = failed || !r.clean(fail_at);
  }

  if (json) {
    // tape_schema names the sibling document sysdp_lint --tape emits, so a
    // consumer holding only this report knows which tape-report revision
    // the same binary would produce.
    std::string doc =
        "{\"schema\": \"sysdp-lint-v1\", "
        "\"tape_schema\": \"sysdp-tapelint-v1\", \"designs\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i > 0) doc += ", ";
      doc += reports[i].to_json();
    }
    doc += "], \"total_errors\": " + std::to_string(errors) +
           ", \"total_warnings\": " + std::to_string(warnings) + "}";
    std::printf("%s\n", doc.c_str());
  } else {
    for (const auto& r : reports) std::printf("%s", r.to_text().c_str());
    std::printf("sysdp_lint: %zu design(s), %zu error(s), %zu warning(s)\n",
                reports.size(), errors, warnings);
  }
  return failed ? 1 : 0;
}
