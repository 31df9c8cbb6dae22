// Compiled tapes pinned by hash.
//
// Lowering is a pure function of the instance: the same design at the same
// sizes and weights must produce the same tape, op for op and bind for
// bind, whatever the recorder, oracle engine or provenance pass look like
// inside.  Each case lowers one instance and compares an FNV-1a hash, taken
// field by field, over everything a consumer of the tape can observe: ops,
// initial image, cycle index, per-op expectations, outputs, the parameter
// plane, the provenance table (modules, lanes, binds, op attribution) and
// the copies_elided / lanes_bound / named_lanes stats.  Stats that count
// the oracle's own work (consts_interned, oracle_active_evals) are left
// out: they describe how the tape was found, not the tape.
//
// Covered: every registry design as SSA, compacted and parameterised tapes,
// plus seeded Design 1 and GKT instances at the sizes of the end-to-end
// benchmark's one-shot mix (6-16 stages x 32-64 nodes, chains of n 32-96).
// A mismatch prints the new hash; a moved hash means the tape changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../examples/design_registry.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/triangular_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "compile/lower.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t tape_hash(const compile::CompiledNetlist& net) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(net.semiring));
  h.u64(net.num_slots);
  h.u64(net.ops.size());
  for (const compile::Op& op : net.ops) {
    h.u64(op.dst);
    h.u64(op.a);
    h.u64(op.b);
    h.u64(op.c);
    h.i64(op.w);
    h.u64(static_cast<std::uint64_t>(op.kind));
    h.u64(op.param);
  }
  h.u64(net.init.size());
  for (const compile::SlotInit& si : net.init) {
    h.u64(si.slot);
    h.i64(si.value);
  }
  h.u64(net.cycle_off.size());
  for (const std::uint32_t off : net.cycle_off) h.u64(off);
  h.u64(net.expected.size());
  for (const Cost c : net.expected) h.i64(c);
  h.u64(net.outputs.size());
  for (const compile::Output& o : net.outputs) {
    h.str(o.tag);
    h.u64(o.index);
    h.u64(o.slot);
    h.i64(o.expected);
  }
  h.u64(net.parameterised ? 1 : 0);
  h.u64(net.params.size());
  for (const Cost w : net.params) h.i64(w);
  const compile::Provenance& prov = net.provenance;
  h.u64(prov.modules.size());
  for (const std::string& m : prov.modules) h.str(m);
  h.u64(prov.lanes.size());
  for (const compile::ProvenanceLane& lane : prov.lanes) {
    h.str(lane.module);
    h.str(lane.label);
    h.u64(lane.module_id);
    h.u64(lane.named ? 1 : 0);
  }
  h.u64(prov.binds.size());
  for (const compile::ProvenanceBind& b : prov.binds) {
    h.u64(b.stamp);
    h.u64(b.lane);
    h.u64(b.slot);
  }
  h.u64(prov.op_lane.size());
  for (const std::uint32_t lane : prov.op_lane) h.u64(lane);
  h.u64(net.stats.copies_elided);
  h.u64(net.stats.lanes_bound);
  h.u64(net.stats.named_lanes);
  return h.value();
}

/// The three tape variants every instance is pinned in.
struct Variant {
  const char* suffix;
  compile::LowerOptions opt;
};

std::vector<Variant> variants() {
  compile::LowerOptions ssa;
  ssa.compact = false;
  compile::LowerOptions param;
  param.parameterise = true;
  return {{"#ssa", ssa}, {"#compacted", {}}, {"#param", param}};
}

/// Compare every computed hash against its golden; a missing or moved
/// entry fails with the hash to record.
void expect_pinned(const std::map<std::string, std::uint64_t>& got,
                   const std::map<std::string, std::uint64_t>& golden) {
  EXPECT_EQ(got.size(), golden.size());
  for (const auto& [name, hash] : got) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden for " << name << ": {\"" << name << "\", "
                    << hex << "ull},";
    } else {
      EXPECT_EQ(hash, it->second)
          << name << " moved: {\"" << name << "\", " << hex << "ull},";
    }
  }
}

TEST(CompiledTapePin, RegistryDesignsAllVariants) {
  const std::map<std::string, std::uint64_t> golden = {
      {"design1-modular[q2,m3]#compacted", 0xb8971ca2c2786a97ull},
      {"design1-modular[q2,m3]#param", 0x6224998d3743ee9bull},
      {"design1-modular[q2,m3]#ssa", 0x72aed19a1475924full},
      {"design1-modular[q4,m6]#compacted", 0x1801521511303d58ull},
      {"design1-modular[q4,m6]#param", 0x45947a5ca93ed794ull},
      {"design1-modular[q4,m6]#ssa", 0x1171ec47437ee40bull},
      {"design2-modular[q2,m3]#compacted", 0xb2709871c1ea18e7ull},
      {"design2-modular[q2,m3]#param", 0x7dc0f75ea8931f35ull},
      {"design2-modular[q2,m3]#ssa", 0x5e1c988f8499f26eull},
      {"design2-modular[q3,m5]#compacted", 0x5725ac93e780a157ull},
      {"design2-modular[q3,m5]#param", 0x6243600dc1d37e1dull},
      {"design2-modular[q3,m5]#ssa", 0x414964aee0113849ull},
      {"design3-modular[s3,w2]#compacted", 0x393e8b2ef2fea065ull},
      {"design3-modular[s3,w2]#param", 0xfc60314fc87982ceull},
      {"design3-modular[s3,w2]#ssa", 0x5e1b95d9a9ad44ffull},
      {"design3-modular[s6,w4]#compacted", 0x08ada0aa8c447d81ull},
      {"design3-modular[s6,w4]#param", 0x8adae2ceef3d69beull},
      {"design3-modular[s6,w4]#ssa", 0x87421534126859e5ull},
      {"triangular-bst[n4]#compacted", 0xc87757620dc7fed3ull},
      {"triangular-bst[n4]#param", 0x3b37f27371770338ull},
      {"triangular-bst[n4]#ssa", 0xd66f9ff6ece8a661ull},
      {"triangular-bst[n7]#compacted", 0x9b0a2d091a43cb31ull},
      {"triangular-bst[n7]#param", 0x940aef5abcbe75e5ull},
      {"triangular-bst[n7]#ssa", 0xf57a1c3d2ca5ec33ull},
      {"triangular-chain[n4]#compacted", 0xcf3671751f76982eull},
      {"triangular-chain[n4]#param", 0xd87545bed91ad2e4ull},
      {"triangular-chain[n4]#ssa", 0x5f0852f68366cf44ull},
      {"triangular-chain[n7]#compacted", 0xd6572083c473de0aull},
      {"triangular-chain[n7]#param", 0xaa6058d78e587472ull},
      {"triangular-chain[n7]#ssa", 0x0bcf56412fc381cfull},
      {"triangular-polygon[n4]#compacted", 0x4b91dfc1d1520bbeull},
      {"triangular-polygon[n4]#param", 0x68622d4afd37f049ull},
      {"triangular-polygon[n4]#ssa", 0x4b91dfc1d1520bbeull},
      {"triangular-polygon[n7]#compacted", 0x517a2d6bfd71e3f4ull},
      {"triangular-polygon[n7]#param", 0x7b0492329ba736abull},
      {"triangular-polygon[n7]#ssa", 0x85a03f3742e374f1ull},
  };
  std::map<std::string, std::uint64_t> got;
  for (const auto& spec : examples::all_designs()) {
    for (const Variant& v : variants()) {
      got[spec.name + v.suffix] = tape_hash(spec.make()->lower(v.opt).net);
    }
  }
  expect_pinned(got, golden);
}

TEST(CompiledTapePin, SeededDesign1AtOneshotSizes) {
  const std::map<std::string, std::uint64_t> golden = {
      {"design1[11x48]#compacted", 0xbc2088535d6e0c76ull},
      {"design1[11x48]#param", 0x20655f2c80c1dda3ull},
      {"design1[11x48]#ssa", 0xb883f717e3503647ull},
      {"design1[16x64]#compacted", 0x1b46acaa45aa1fa1ull},
      {"design1[16x64]#param", 0xad3f57b1abf0d7e7ull},
      {"design1[16x64]#ssa", 0xe2de266e893cf5eeull},
      {"design1[6x32]#compacted", 0xa4e26d1518b0719eull},
      {"design1[6x32]#param", 0x14f623c67799813bull},
      {"design1[6x32]#ssa", 0x80d857fbf672f945ull},
  };
  struct Shape {
    std::size_t stages, width;
  };
  std::map<std::string, std::uint64_t> got;
  for (const Shape s : {Shape{6, 32}, Shape{11, 48}, Shape{16, 64}}) {
    const std::string name = "design1[" + std::to_string(s.stages) + "x" +
                             std::to_string(s.width) + "]";
    Rng rng(9000 + s.stages * 100 + s.width);
    const auto g = with_single_source_sink(
        random_multistage(s.stages, s.width, rng, 1, 99));
    for (const Variant& v : variants()) {
      auto prob = to_string_product(g);
      Design1Modular arr(std::move(prob.mats), std::move(prob.v));
      got[name + v.suffix] = tape_hash(compile::lower_array(arr, v.opt).net);
    }
  }
  expect_pinned(got, golden);
}

TEST(CompiledTapePin, SeededGktAtOneshotSizes) {
  const std::map<std::string, std::uint64_t> golden = {
      {"gkt[n32]#compacted", 0x44267f5d57b05d3dull},
      {"gkt[n32]#param", 0x24f4adf2822a20a4ull},
      {"gkt[n32]#ssa", 0xcd78cec5d3aa083dull},
      {"gkt[n64]#compacted", 0xec9afb1412ca3180ull},
      {"gkt[n64]#param", 0x489e7b518b23c898ull},
      {"gkt[n64]#ssa", 0xe993c1b25d93317aull},
      {"gkt[n96]#compacted", 0x58fb71dc34608d5aull},
      {"gkt[n96]#param", 0x01f3915a7a78d34dull},
      {"gkt[n96]#ssa", 0x87fb8d00d5bfa07bull},
  };
  std::map<std::string, std::uint64_t> got;
  for (const std::size_t n : {32u, 64u, 96u}) {
    const std::string name = "gkt[n" + std::to_string(n) + "]";
    Rng rng(9100 + n);
    const auto dims = random_chain_dims(n, rng);
    for (const Variant& v : variants()) {
      TriangularModularArray<ChainRule> arr(ChainRule(dims), n);
      got[name + v.suffix] = tape_hash(compile::lower_array(arr, v.opt).net);
    }
  }
  expect_pinned(got, golden);
}

}  // namespace
}  // namespace sysdp
