// Optimizer fuzzing: random construction-correct SSA tapes go through each
// optimizer pass alone and the full pipeline at both levels, and every
// variant must (a) still pass all nine static verifier checks, (b) replay
// bit-identically to the unoptimized tape — on a one-lane engine and on
// engines of B ∈ {1, 2, 8} lanes — and (c) never grow the tape (op
// and level counts are monotone non-increasing).  The generator deliberately leaves dead
// scalars behind, so dead-op elimination always has real work, and every
// level's first op reads the previous level, so fusion always faces real
// cross-level edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/tape_verify.hpp"
#include "compile/compact.hpp"
#include "compile/engine.hpp"
#include "compile/optimize.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

using compile::CompiledNetlist;
using compile::Op;
using compile::OpKind;

/// Random layered SSA tape, correct by construction — the same scheme as
/// tape_fuzz_test.cpp but wider and deeper, so fusion and reordering both
/// get levels with substance.  Parameterised with the
/// identity plane, mirroring the recorder's emission.
CompiledNetlist random_tape(Rng& rng) {
  std::uniform_int_distribution<int> d_consts(3, 6);
  std::uniform_int_distribution<int> d_levels(4, 12);
  std::uniform_int_distribution<int> d_ops(1, 24);
  std::uniform_int_distribution<Cost> d_w(1, 9);
  std::uniform_int_distribution<Cost> d_v(0, 50);
  std::uniform_int_distribution<int> d_kind(0, 99);

  CompiledNetlist net;
  sim::SlotId next_slot = 0;
  std::vector<sim::SlotId> scalars;
  const int nc = d_consts(rng);
  for (int i = 0; i < nc; ++i) {
    net.init.push_back({next_slot, d_v(rng)});
    scalars.push_back(next_slot++);
  }
  sim::SlotId pair = next_slot;  // (best value, best station)
  net.init.push_back({next_slot++, d_v(rng)});
  net.init.push_back({next_slot++, 3});

  const int levels = d_levels(rng);
  std::vector<sim::SlotId> prev = scalars;
  for (int t = 0; t < levels; ++t) {
    net.cycle_off.push_back(static_cast<std::uint32_t>(net.ops.size()));
    const int k = d_ops(rng);
    std::vector<sim::SlotId> fresh;
    for (int j = 0; j < k; ++j) {
      const auto pick = [&](const std::vector<sim::SlotId>& from) {
        std::uniform_int_distribution<std::size_t> d(0, from.size() - 1);
        return from[d(rng)];
      };
      const int roll = j == 0 ? 0 : d_kind(rng);
      Op op;
      op.w = d_w(rng);
      op.param = static_cast<std::uint32_t>(net.ops.size());
      if (roll < 60) {
        op.kind = OpKind::kMac;
        op.a = pick(prev);
        op.b = pick(scalars);
        op.dst = next_slot++;
        fresh.push_back(op.dst);
      } else if (roll < 85) {
        op.kind = OpKind::kFold;
        op.a = pick(prev);
        op.b = pick(scalars);
        op.c = pick(scalars);
        op.dst = next_slot++;
        fresh.push_back(op.dst);
      } else {
        op.kind = OpKind::kRelax;
        op.a = pair;
        op.c = static_cast<sim::SlotId>(j);  // station immediate
        op.b = pick(scalars);
        op.dst = next_slot;
        next_slot += 2;
        pair = op.dst;
      }
      net.ops.push_back(op);
    }
    for (const sim::SlotId s : fresh) scalars.push_back(s);
    if (!fresh.empty()) prev = fresh;
  }
  net.cycle_off.push_back(static_cast<std::uint32_t>(net.ops.size()));
  net.num_slots = next_slot;
  net.expected.assign(net.ops.size(), 0);
  net.outputs.push_back({"out", 0, scalars.back(), 0});
  net.outputs.push_back({"best", 0, pair, 0});
  net.parameterised = true;
  net.params.reserve(net.ops.size());
  for (const Op& op : net.ops) net.params.push_back(op.w);
  return net;
}

/// Slots a tape defines: init slots plus every op's write set (relax
/// writes dst and dst+1).  Bit-identity is asserted over exactly this set
/// — dead-op elimination legitimately stops writing pruned slots.
std::vector<sim::SlotId> defined_slots(const CompiledNetlist& net) {
  std::vector<sim::SlotId> out;
  for (const auto& in : net.init) out.push_back(in.slot);
  for (const Op& op : net.ops) {
    out.push_back(op.dst);
    if (op.kind == OpKind::kRelax) out.push_back(op.dst + 1);
  }
  return out;
}

/// Replay `net` on the serial engine (optionally under a rebinding) and
/// return the full slot image.
std::vector<Cost> slot_image(const CompiledNetlist& net,
                             const std::vector<Cost>* weights) {
  compile::CompiledEngine eng(net);
  if (weights != nullptr) eng.bind(0, *weights);
  eng.run_all();
  std::vector<Cost> img(net.num_slots);
  for (sim::SlotId s = 0; s < net.num_slots; ++s) img[s] = eng.value(s);
  return img;
}

/// Every finite oracle weight bumped by one — the deterministic rebinding
/// the lint gate uses, reused here so optimized parameterised tapes are
/// proven equivalent under a non-oracle binding too.
std::vector<Cost> perturbed_weights(const CompiledNetlist& net) {
  std::vector<Cost> w = net.params;
  for (Cost& x : w) {
    if (!is_inf(x) && !is_neg_inf(x)) x += 1;
  }
  return w;
}

/// Assert `variant` verifies clean, never grew, and replays bit-identically
/// to the reference slot image over the slots the variant still defines.
void expect_equivalent(const CompiledNetlist& variant,
                       const CompiledNetlist& original,
                       const std::vector<Cost>& ref,
                       const std::vector<Cost>& ref_rebound,
                       const std::string& what) {
  SCOPED_TRACE(what);
  const auto rep = analysis::verify_tape(variant, "optfuzz-" + what);
  EXPECT_TRUE(rep.clean()) << rep.to_text();
  EXPECT_LE(variant.num_ops(), original.num_ops());
  EXPECT_LE(variant.cycles(), original.cycles());

  const auto slots = defined_slots(variant);
  const auto img = slot_image(variant, nullptr);
  for (const sim::SlotId s : slots) {
    ASSERT_EQ(img[s], ref[s]) << "slot " << s << " diverged";
  }
  const auto wts = perturbed_weights(variant);
  const auto img_r = slot_image(variant, &wts);
  for (const sim::SlotId s : slots) {
    ASSERT_EQ(img_r[s], ref_rebound[s]) << "rebound slot " << s << " diverged";
  }
}

TEST(OptFuzz, EachPassAloneIsVerifierCleanAndBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 777);
    const CompiledNetlist net = random_tape(rng);
    const auto ref = slot_image(net, nullptr);
    const auto wts = perturbed_weights(net);
    const auto ref_rebound = slot_image(net, &wts);

    {
      CompiledNetlist m = net;
      compile::prune_dead_ops(m);
      expect_equivalent(m, net, ref, ref_rebound, "prune");
    }
    {
      CompiledNetlist m = net;
      compile::fuse_levels(m, /*allow_chain_edges=*/false);
      expect_equivalent(m, net, ref, ref_rebound, "fuse1");
    }
    {
      CompiledNetlist m = net;
      compile::fuse_levels(m, /*allow_chain_edges=*/true);
      expect_equivalent(m, net, ref, ref_rebound, "fuse2");
    }
    {
      CompiledNetlist m = net;
      compile::reorder_levels(m);
      expect_equivalent(m, net, ref, ref_rebound, "reorder");
    }
  }
}

TEST(OptFuzz, FullPipelineIsVerifierCleanBitIdenticalAndMonotone) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 4242);
    const CompiledNetlist net = random_tape(rng);
    const auto ref = slot_image(net, nullptr);
    const auto wts = perturbed_weights(net);
    const auto ref_rebound = slot_image(net, &wts);

    for (int level = 1; level <= 2; ++level) {
      CompiledNetlist m = net;
      compile::OptimizeOptions oo;
      oo.level = level;
      const auto stats = compile::optimize_tape(m, oo);
      EXPECT_EQ(stats.level, level);
      EXPECT_LE(stats.ops_after, stats.ops_before);
      EXPECT_LE(stats.levels_after, stats.levels_before);
      EXPECT_EQ(stats.ops_before - stats.ops_after, stats.ops_pruned);
      expect_equivalent(m, net, ref, ref_rebound,
                        "opt" + std::to_string(level));

      // Compaction renames the slot file, so bit-identity after
      // compact_slots() is asserted on the declared outputs.
      CompiledNetlist c = m;
      compile::compact_slots(c);
      const auto crep = analysis::verify_tape(
          c, "optfuzz-opt" + std::to_string(level) + "-compacted");
      EXPECT_TRUE(crep.clean()) << crep.to_text();
      compile::CompiledEngine ce(c);
      ce.run_all();
      EXPECT_EQ(ce.output("out", 0), ref[net.outputs[0].slot]);
      EXPECT_EQ(ce.output("best", 0), ref[net.outputs[1].slot]);
    }
  }
}

TEST(OptFuzz, OptimizedTapesReplayIdenticallyBatched) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 99);
    const CompiledNetlist net = random_tape(rng);
    const auto ref = slot_image(net, nullptr);

    for (int level = 1; level <= 2; ++level) {
      SCOPED_TRACE("opt" + std::to_string(level));
      CompiledNetlist m = net;
      compile::OptimizeOptions oo;
      oo.level = level;
      compile::optimize_tape(m, oo);
      const auto slots = defined_slots(m);

      for (const std::uint32_t lanes : {1u, 2u, 8u}) {
        SCOPED_TRACE("B=" + std::to_string(lanes));
        compile::CompiledEngine be(m, lanes);
        be.run_all();
        for (std::uint32_t lane = 0; lane < lanes; ++lane) {
          for (const sim::SlotId s : slots) {
            ASSERT_EQ(be.value(s, lane), ref[s])
                << "lane " << lane << " slot " << s;
          }
        }
      }
    }
  }
}

TEST(OptFuzz, PassesRejectCompactedTapes) {
  Rng rng(2026);
  CompiledNetlist net = random_tape(rng);
  compile::compact_slots(net);
  EXPECT_THROW(compile::optimize_tape(net), std::logic_error);
  EXPECT_THROW(compile::prune_dead_ops(net), std::logic_error);
  EXPECT_THROW(compile::fuse_levels(net, false), std::logic_error);
  EXPECT_THROW(compile::reorder_levels(net), std::logic_error);
}

}  // namespace
}  // namespace sysdp
