// Verifier reports pinned by hash.
//
// The static tape verifier is a pure function of the tape and its
// options: the same tape must produce the same report, finding for finding
// and statistic for statistic, however the verifier walks it.  Each case
// verifies one lowered tape and compares an FNV-1a hash of
// TapeVerifyReport::to_json() — every statistic (dependence_depth,
// in_level_chains, transport_slack_ops, dead_ops, max_abs_finite,
// ops_attributed, ...) and every diagnostic in order.
//
// Covered: every tape `sysdp_lint --tape` verifies (each registry design
// as its SSA tape, its compacted tape and a parameterised tape under a
// perturbed rebinding), plus the seeded Design 1 and GKT instances that
// CompiledTapePin lowers at the end-to-end benchmark's one-shot sizes, in
// the same three variants.  A mismatch prints the new hash and the report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../examples/design_registry.hpp"
#include "analysis/tape_verify.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/triangular_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "compile/lower.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Every finite oracle weight bumped by one: the rebinding sysdp_lint's
/// #rebound variant verifies.
analysis::TapeVerifyOptions perturbed(const compile::CompiledNetlist& net) {
  analysis::TapeVerifyOptions vopt;
  vopt.bound_weights = net.params;
  for (Cost& w : vopt.bound_weights) {
    if (!is_inf(w) && !is_neg_inf(w)) w += 1;
  }
  return vopt;
}

/// Report JSON of the three variants of one instance, keyed by
/// `name#ssa`, `name#compacted` and `name#rebound`; `lower` lowers a fresh
/// array of the instance with the given options.
template <typename Lower>
void verify_variants(const std::string& name, Lower lower,
                     std::map<std::string, std::string>& got) {
  compile::LowerOptions ssa;
  ssa.compact = false;
  got[name + "#ssa"] =
      analysis::verify_tape(lower(ssa).net, name + "#ssa").to_json();
  got[name + "#compacted"] =
      analysis::verify_tape(lower({}).net, name + "#compacted").to_json();
  compile::LowerOptions param;
  param.parameterise = true;
  const auto low = lower(param);
  got[name + "#rebound"] =
      analysis::verify_tape(low.net, name + "#rebound", perturbed(low.net))
          .to_json();
}

void expect_pinned(const std::map<std::string, std::string>& got,
                   const std::map<std::string, std::uint64_t>& golden) {
  EXPECT_EQ(got.size(), golden.size());
  for (const auto& [name, json] : got) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(fnv1a(json)));
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden for " << name << ": {\"" << name << "\", "
                    << hex << "ull},\n"
                    << json;
    } else {
      EXPECT_EQ(fnv1a(json), it->second)
          << name << " moved: {\"" << name << "\", " << hex << "ull},\n"
          << json;
    }
  }
}

TEST(TapeVerifyPin, LintTapeVariants) {
  const std::map<std::string, std::uint64_t> golden = {
      {"design1-modular[q2,m3]#compacted", 0x0abd55f6558c9bb8ull},
      {"design1-modular[q2,m3]#rebound", 0xcffae5c344c1fc54ull},
      {"design1-modular[q2,m3]#ssa", 0x816185aa05aa0f1aull},
      {"design1-modular[q4,m6]#compacted", 0x09ba9122f9228130ull},
      {"design1-modular[q4,m6]#rebound", 0x1c81b3ecf9d1d504ull},
      {"design1-modular[q4,m6]#ssa", 0x6d5e3aa312ef4a84ull},
      {"design2-modular[q2,m3]#compacted", 0x8da38be40dec42e3ull},
      {"design2-modular[q2,m3]#rebound", 0x9eb992d163a5bafbull},
      {"design2-modular[q2,m3]#ssa", 0xc249f8d43774368eull},
      {"design2-modular[q3,m5]#compacted", 0x4a2b37f46f77028bull},
      {"design2-modular[q3,m5]#rebound", 0xb20c75fba57811a5ull},
      {"design2-modular[q3,m5]#ssa", 0x2dc52ae04b61de50ull},
      {"design3-modular[s3,w2]#compacted", 0x56fdd544d59d19e2ull},
      {"design3-modular[s3,w2]#rebound", 0x39774b9785ebae26ull},
      {"design3-modular[s3,w2]#ssa", 0xdeed6883294f86b3ull},
      {"design3-modular[s6,w4]#compacted", 0xafc84ebbacd6b7c9ull},
      {"design3-modular[s6,w4]#rebound", 0x0fb4039d4787a01full},
      {"design3-modular[s6,w4]#ssa", 0x17b443650da30a6cull},
      {"triangular-bst[n4]#compacted", 0x4184ba1212970c06ull},
      {"triangular-bst[n4]#rebound", 0xf5910ef3fd8b99c1ull},
      {"triangular-bst[n4]#ssa", 0xe25addb3d8b86c6cull},
      {"triangular-bst[n7]#compacted", 0x55306365903692a7ull},
      {"triangular-bst[n7]#rebound", 0xb4698f1b08004d36ull},
      {"triangular-bst[n7]#ssa", 0x89958a6e62484a31ull},
      {"triangular-chain[n4]#compacted", 0x95192c23403848c9ull},
      {"triangular-chain[n4]#rebound", 0x8ed55b168b7f79aeull},
      {"triangular-chain[n4]#ssa", 0x55f243c3c5967e23ull},
      {"triangular-chain[n7]#compacted", 0x08f69ddf360e1a68ull},
      {"triangular-chain[n7]#rebound", 0xd49d7c430ad61f4eull},
      {"triangular-chain[n7]#ssa", 0x62a87ef75a5601d9ull},
      {"triangular-polygon[n4]#compacted", 0x1ef5945baba87d41ull},
      {"triangular-polygon[n4]#rebound", 0xbf73387aed1963f9ull},
      {"triangular-polygon[n4]#ssa", 0x59d57c50d9b79c3dull},
      {"triangular-polygon[n7]#compacted", 0xf1caa514e4df88d9ull},
      {"triangular-polygon[n7]#rebound", 0x50b92b842f43b1d4ull},
      {"triangular-polygon[n7]#ssa", 0xa2cf377f3648b82aull},
  };
  std::map<std::string, std::string> got;
  for (const auto& spec : examples::all_designs()) {
    verify_variants(
        spec.name,
        [&](const compile::LowerOptions& opt) {
          return spec.make()->lower(opt);
        },
        got);
  }
  expect_pinned(got, golden);
}

TEST(TapeVerifyPin, OneshotSizedInstances) {
  const std::map<std::string, std::uint64_t> golden = {
      {"design1[11x48]#compacted", 0x6150ed2f08ed2ddeull},
      {"design1[11x48]#rebound", 0x113cf3e650b37d6eull},
      {"design1[11x48]#ssa", 0xf1a6ad6cce52c72full},
      {"design1[16x64]#compacted", 0x90d8c657cdea635aull},
      {"design1[16x64]#rebound", 0x030f5101c78434adull},
      {"design1[16x64]#ssa", 0x1123b7ab4bfa837full},
      {"design1[6x32]#compacted", 0x0f8d4c1cac4a2ca5ull},
      {"design1[6x32]#rebound", 0x6a7526b7c0e3aab5ull},
      {"design1[6x32]#ssa", 0x988f52483373f49aull},
      {"gkt[n32]#compacted", 0x559ce06c10c4ed99ull},
      {"gkt[n32]#rebound", 0x8505dad59433837full},
      {"gkt[n32]#ssa", 0xb331183d1f735446ull},
      {"gkt[n64]#compacted", 0x346d0fa84abd7c67ull},
      {"gkt[n64]#rebound", 0x400861eeec36572full},
      {"gkt[n64]#ssa", 0x7bba90fcc747bd29ull},
      {"gkt[n96]#compacted", 0xf25e43ddb01d585full},
      {"gkt[n96]#rebound", 0xa2e31eedd848672dull},
      {"gkt[n96]#ssa", 0xf59005197bf439bcull},
  };
  std::map<std::string, std::string> got;
  struct Shape {
    std::size_t stages, width;
  };
  for (const Shape s : {Shape{6, 32}, Shape{11, 48}, Shape{16, 64}}) {
    Rng rng(9000 + s.stages * 100 + s.width);
    const auto g = with_single_source_sink(
        random_multistage(s.stages, s.width, rng, 1, 99));
    verify_variants(
        "design1[" + std::to_string(s.stages) + "x" +
            std::to_string(s.width) + "]",
        [&](const compile::LowerOptions& opt) {
          auto prob = to_string_product(g);
          Design1Modular arr(std::move(prob.mats), std::move(prob.v));
          return compile::lower_array(arr, opt);
        },
        got);
  }
  for (const std::size_t n : {32u, 64u, 96u}) {
    Rng rng(9100 + n);
    const auto dims = random_chain_dims(n, rng);
    verify_variants(
        "gkt[n" + std::to_string(n) + "]",
        [&](const compile::LowerOptions& opt) {
          TriangularModularArray<ChainRule> arr(ChainRule(dims), n);
          return compile::lower_array(arr, opt);
        },
        got);
  }
  expect_pinned(got, golden);
}

}  // namespace
}  // namespace sysdp
