// Tape fuzzing: randomly generated but construction-correct tapes must
// verify clean, and a single seeded corruption must be rejected with a
// diagnostic from the matching check — the generator knows which property
// it broke, so the verifier's answer is checkable bit for bit, no oracle
// replay needed.  The same tapes also replay on multi-lane engines, where
// every lane must match a one-lane replay of its own weight binding.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/tape_verify.hpp"
#include "compile/engine.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

using analysis::Severity;
using analysis::TapeVerifier;
using compile::CompiledNetlist;
using compile::Op;
using compile::OpKind;

/// Build a random layered SSA tape that is correct by construction:
/// constants (plus one relax pair) in init, then `levels` dependency
/// levels of mac/fold/relax ops whose operands are drawn from slots
/// defined in strictly earlier levels, every mac/fold op's first operand
/// from the immediately preceding level (so producer->consumer edges
/// exist at every level for the mutations to attack).  A relax op reads
/// the pair the previous relax op wrote, so two relax ops in one level
/// form an in-level chain.  The tape is parameterised with the identity
/// plane, mirroring the recorder's emission.
CompiledNetlist random_tape(Rng& rng) {
  std::uniform_int_distribution<int> d_consts(2, 5);
  std::uniform_int_distribution<int> d_levels(2, 8);
  std::uniform_int_distribution<int> d_ops(1, 12);
  std::uniform_int_distribution<Cost> d_w(1, 9);
  std::uniform_int_distribution<Cost> d_v(0, 50);
  std::uniform_int_distribution<int> d_kind(0, 99);

  CompiledNetlist net;
  sim::SlotId next_slot = 0;
  std::vector<sim::SlotId> scalars;  // defined scalar slots, all levels
  const int nc = d_consts(rng);
  for (int i = 0; i < nc; ++i) {
    net.init.push_back({next_slot, d_v(rng)});
    scalars.push_back(next_slot++);
  }
  sim::SlotId pair = next_slot;  // (best value, best station)
  net.init.push_back({next_slot++, d_v(rng)});
  net.init.push_back({next_slot++, 3});

  const int levels = d_levels(rng);
  std::vector<sim::SlotId> prev = scalars;  // previous level's new scalars
  for (int t = 0; t < levels; ++t) {
    net.cycle_off.push_back(static_cast<std::uint32_t>(net.ops.size()));
    const int k = d_ops(rng);
    std::vector<sim::SlotId> fresh;
    for (int j = 0; j < k; ++j) {
      const auto pick = [&](const std::vector<sim::SlotId>& from) {
        std::uniform_int_distribution<std::size_t> d(0, from.size() - 1);
        return from[d(rng)];
      };
      // Each level's first op is a mac reading the previous level, so
      // cross-level producer->consumer edges and scalar destinations are
      // always present for the mutations to attack.
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
        op.a = pair;              // current best pair
        op.b = pick(scalars);
        op.c = static_cast<sim::SlotId>(j);  // station immediate
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
  // Expected values are structurally required (parallel to ops) but their
  // contents are the dynamic checker's concern, not the static one's.
  net.expected.assign(net.ops.size(), 0);
  net.outputs.push_back({"out", 0, scalars.back(), 0});
  net.outputs.push_back({"best", 0, pair, 0});
  net.parameterised = true;
  net.params.reserve(net.ops.size());
  for (const Op& op : net.ops) net.params.push_back(op.w);
  return net;
}

/// Replay `net` on a one-lane engine, bound to `weights` (the oracle
/// binding when null), and return the full slot image.
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
/// the lint gate verifies.
std::vector<Cost> perturbed_weights(const CompiledNetlist& net) {
  std::vector<Cost> w = net.params;
  for (Cost& x : w) {
    if (!is_inf(x) && !is_neg_inf(x)) x += 1;
  }
  return w;
}

void expect_rejected(const CompiledNetlist& net, std::string_view check,
                     const char* what) {
  const auto rep = analysis::verify_tape(net, std::string("fuzz-") +
                                                  std::string(check));
  EXPECT_FALSE(rep.clean()) << what << ": mutation went undetected\n"
                            << rep.to_text();
  bool matched = false;
  for (const auto& d : rep.diagnostics) {
    if (d.check == check && d.severity == Severity::kError) matched = true;
  }
  EXPECT_TRUE(matched) << what << ": rejected, but not by " << check << "\n"
                       << rep.to_text();
}

TEST(TapeFuzz, RandomTapesVerifyCleanAndSingleMutationsAreCaught) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 12345);
    const CompiledNetlist net = random_tape(rng);

    // Unmutated: clean by construction (dead ops are warnings — the
    // generator deliberately leaves unobserved scalars behind).
    const auto rep = analysis::verify_tape(net, "fuzz-clean");
    EXPECT_TRUE(rep.clean()) << rep.to_text();

    // Each applicable mutation on a fresh copy, exactly one corruption at
    // a time.
    {
      CompiledNetlist m = net;  // dangling operand
      std::uniform_int_distribution<std::size_t> d(0, m.ops.size() - 1);
      m.num_slots += 1;
      m.ops[d(rng)].b = m.num_slots - 1;
      expect_rejected(m, TapeVerifier::kDefBeforeUse, "dangle");
    }
    {
      CompiledNetlist m = net;  // consumer hoisted above its producer
      bool done = false;
      for (std::size_t c = 0; c < m.ops.size() && !done; ++c) {
        for (std::size_t p = 0; p < c && !done; ++p) {
          if (m.ops[p].dst != m.ops[c].a) continue;
          if (m.level_of_op(p) >= m.level_of_op(c)) continue;
          std::swap(m.ops[p], m.ops[c]);
          done = true;
        }
      }
      ASSERT_TRUE(done) << "generator must produce cross-level edges";
      expect_rejected(m, TapeVerifier::kLevelSchedule, "swap");
    }
    {
      CompiledNetlist m = net;  // duplicate scalar destination
      std::size_t first = m.ops.size();
      bool done = false;
      for (std::size_t i = 0; i < m.ops.size(); ++i) {
        if (m.ops[i].kind == OpKind::kRelax) continue;
        if (first == m.ops.size()) {
          first = i;
        } else {
          m.ops[i].dst = m.ops[first].dst;
          done = true;
          break;
        }
      }
      if (done) {
        expect_rejected(m, TapeVerifier::kSingleAssignment, "dup-write");
      }
    }
    {
      CompiledNetlist m = net;  // output rewired to an unwritten slot
      m.num_slots += 1;
      m.outputs[0].slot = m.num_slots - 1;
      expect_rejected(m, TapeVerifier::kOutputReachability, "dangle-output");
    }
    {
      CompiledNetlist m = net;  // sentinel-adjacent init feeding a kernel
      bool done = false;
      for (const Op& op : m.ops) {
        if (done) break;
        for (auto& si : m.init) {
          if (si.slot == op.b) {
            si.value = kInfCost - 1;
            done = true;
            break;
          }
        }
      }
      ASSERT_TRUE(done) << "some op must read an init constant";
      expect_rejected(m, TapeVerifier::kValueRange, "huge-init");
    }
    {
      CompiledNetlist m = net;  // parameter plane out of step with tape
      std::uniform_int_distribution<std::size_t> d(0, m.params.size() - 1);
      m.params[d(rng)] += 1;
      expect_rejected(m, TapeVerifier::kBindPlane, "param-drift");
    }
    {
      CompiledNetlist m = net;  // cycle index truncated mid-tape
      m.cycle_off.back() -= 1;
      expect_rejected(m, TapeVerifier::kTapeStructure, "csr-truncate");
    }
  }
}

/// Lane-exactness on random tapes: every lane of a B-lane engine, B in
/// {1, 2, 8}, must end with the slot image of a one-lane replay of its own
/// binding — the oracle's weights or the perturbed table — whether the
/// lanes all share one binding or alternate.  Unlike the lowered designs,
/// these tapes put several op kinds in one level and chain relax ops
/// inside a level, so levels of several runs and in-level reads meet every
/// lane kernel; the seeds must produce both, or the check has nothing to
/// say about them.
TEST(TapeFuzz, RandomTapesReplayLaneExactAtEveryWidth) {
  std::uint64_t mixed_kind_tapes = 0;
  std::uint64_t chained_tapes = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 99);
    const CompiledNetlist net = random_tape(rng);
    if (compile::CompiledEngine(net).fallback_levels() > 0) {
      ++mixed_kind_tapes;
    }
    if (analysis::verify_tape(net, "fuzz-lanes").stats.in_level_chains > 0) {
      ++chained_tapes;
    }

    const std::vector<Cost> perturbed = perturbed_weights(net);
    // One-lane slot image per binding: [0] oracle, [1] perturbed.
    const std::array<std::vector<Cost>, 2> ref = {
        slot_image(net, nullptr), slot_image(net, &perturbed)};
    for (const std::uint32_t lanes : {1u, 2u, 8u}) {
      // Pattern 0: every lane oracle-bound (the baked-immediate path);
      // 1: every lane perturbed; 2: odd lanes perturbed, even lanes on
      // the oracle's table.
      for (std::uint32_t pattern = 0; pattern < 3; ++pattern) {
        SCOPED_TRACE("B=" + std::to_string(lanes) +
                     " pattern=" + std::to_string(pattern));
        compile::CompiledEngine be(net, lanes);
        std::vector<std::uint32_t> binding(lanes, pattern == 1 ? 1u : 0u);
        for (std::uint32_t l = 0; l < lanes; ++l) {
          if (pattern == 2) binding[l] = l % 2;
          if (binding[l] == 1) be.bind(l, perturbed);
        }
        be.run_all();
        for (std::uint32_t l = 0; l < lanes; ++l) {
          for (sim::SlotId s = 0; s < net.num_slots; ++s) {
            ASSERT_EQ(be.value(s, l), ref[binding[l]][s])
                << "lane " << l << " slot " << s;
          }
        }
      }
    }
  }
  EXPECT_GT(mixed_kind_tapes, 0u) << "no seed produced a mixed-kind level";
  EXPECT_GT(chained_tapes, 0u) << "no seed produced an in-level chain";
}

}  // namespace
}  // namespace sysdp
