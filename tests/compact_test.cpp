// Unit tests for live-range slot compaction (compile/compact.hpp) on
// hand-built tapes: the order in which expired groups are recycled, the
// provenance binds that extend a group's life, pair groups, and a
// malformed bind stamp past the tape's last level.
#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "compile/compact.hpp"
#include "compile/program.hpp"

namespace sysdp::compile {
namespace {

/// A tape over `num_slots` SSA slots whose slot 0 holds the constant 0,
/// with one level per entry of `levels`.
CompiledNetlist tape(std::uint32_t num_slots,
                     std::initializer_list<std::vector<Op>> levels) {
  CompiledNetlist net;
  net.num_slots = num_slots;
  net.init.push_back(SlotInit{0, 0});
  net.cycle_off.push_back(0);
  for (const std::vector<Op>& level : levels) {
    for (const Op& op : level) {
      net.ops.push_back(op);
      net.expected.push_back(0);
    }
    net.cycle_off.push_back(static_cast<std::uint32_t>(net.ops.size()));
  }
  return net;
}

Op mac(sim::SlotId dst, sim::SlotId a, sim::SlotId b) {
  return Op{dst, a, b, 0, 1, OpKind::kMac, 0};
}

/// kRelax writes the pair dst/dst+1 from the pair a/a+1 and slot b.
Op relax(sim::SlotId dst, sim::SlotId a, sim::SlotId b) {
  return Op{dst, a, b, 0, 1, OpKind::kRelax, 0};
}

void declare_output(CompiledNetlist& net, sim::SlotId slot) {
  net.outputs.push_back(Output{"out", net.outputs.size(), slot, 0});
}

// Slots 1 and 2 are both last read in level 1, so both expire before
// level 2, in slot order; the free list hands out the most recently
// freed index first, so the first definition of level 2 takes slot 2's
// index and the second takes slot 1's.  This pins the order in which
// groups that expire together are released.
TEST(CompactSlots, GroupsExpiringInOneLevelAreRecycledInSlotOrder) {
  CompiledNetlist net = tape(6, {{mac(1, 0, 0), mac(2, 0, 0)},
                                 {mac(3, 1, 2)},
                                 {mac(4, 3, 3), mac(5, 3, 3)}});
  declare_output(net, 4);
  declare_output(net, 5);
  const CompactStats cs = compact_slots(net);
  EXPECT_EQ(cs.slots_before, 6u);
  EXPECT_EQ(cs.slots_after, 3u);
  EXPECT_EQ(net.num_slots, 3u);
  // Slot 0 expires after level 0, so level 1's definition reuses it.
  EXPECT_EQ(net.ops[0].dst, 1u);
  EXPECT_EQ(net.ops[1].dst, 2u);
  EXPECT_EQ(net.ops[2].dst, 0u);
  EXPECT_EQ(net.ops[3].dst, 2u);
  EXPECT_EQ(net.ops[4].dst, 1u);
  EXPECT_EQ(net.outputs[0].slot, 2u);
  EXPECT_EQ(net.outputs[1].slot, 1u);
  EXPECT_TRUE(net.stats.compacted);
  EXPECT_EQ(net.stats.slots_uncompacted, 6u);
}

// A chain of five levels.  Without binds slot 1 (last read in level 1) is
// recycled by level 2's definition.  A bind stamped 4 samples slot 1 at
// the end of level 3, so no definition in levels 2 and 3 may take its
// index.
TEST(CompactSlots, ProvenanceBindKeepsGroupAlivePastItsLastRead) {
  const auto chain = [] {
    CompiledNetlist net = tape(6, {{mac(1, 0, 0)},
                                   {mac(2, 1, 1)},
                                   {mac(3, 2, 2)},
                                   {mac(4, 3, 3)},
                                   {mac(5, 4, 4)}});
    declare_output(net, 5);
    return net;
  };
  CompiledNetlist plain = chain();
  compact_slots(plain);
  EXPECT_EQ(plain.ops[2].dst, plain.ops[0].dst);

  CompiledNetlist bound = chain();
  bound.provenance.lanes.resize(1);
  bound.provenance.binds.push_back(ProvenanceBind{4, 0, 1});
  compact_slots(bound);
  const sim::SlotId held = bound.ops[0].dst;
  EXPECT_EQ(bound.provenance.binds[0].slot, held);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NE(bound.ops[i].dst, held) << "op " << i << " in level " << i;
  }
  EXPECT_GT(bound.num_slots, plain.num_slots);
}

// kRelax addresses slot pairs, so a pair group is freed and reused as one
// two-slot block: a scalar defined after a pair expired, with no scalar
// index free, takes a fresh index, and the next pair takes the freed
// block.
TEST(CompactSlots, PairGroupIsReusedOnlyByAPair) {
  // Slots 1/2 are the input pair; slot 3 the relaxed scalar operand.
  CompiledNetlist net = tape(11, {{mac(1, 0, 0), mac(2, 0, 0), mac(3, 0, 0)},
                                  {relax(4, 1, 3)},
                                  {relax(6, 4, 3)},
                                  {mac(8, 0, 3)},
                                  {relax(9, 6, 8)}});
  declare_output(net, 9);
  declare_output(net, 10);
  compact_slots(net);
  EXPECT_EQ(net.num_slots, 7u);
  const sim::SlotId first_pair = net.ops[3].dst;   // pair 4/5
  const sim::SlotId second_pair = net.ops[4].dst;  // pair 6/7
  const sim::SlotId scalar = net.ops[5].dst;       // slot 8
  const sim::SlotId last_pair = net.ops[6].dst;    // pair 9/10
  // Pair 4/5 expires after level 2, before the scalar of level 3 is
  // defined, yet the scalar does not take either half of it.
  EXPECT_NE(scalar, first_pair);
  EXPECT_NE(scalar, first_pair + 1);
  EXPECT_NE(scalar, second_pair);
  EXPECT_NE(scalar, second_pair + 1);
  // The next pair does take the freed block.
  EXPECT_EQ(last_pair, first_pair);
  EXPECT_EQ(net.ops[6].a, second_pair);
  EXPECT_EQ(net.ops[6].b, scalar);
}

// A malformed tape: a bind stamped two past the last level, so its group
// reads as last touched after the tape ends.  The expiry table is sized
// from the largest last touch, so compaction neither indexes outside it
// nor ever recycles that group.
TEST(CompactSlots, BindStampPastTheLastLevelCompactsInBounds) {
  CompiledNetlist net = tape(4, {{mac(1, 0, 0)}, {mac(2, 1, 1)}});
  net.provenance.lanes.resize(1);
  const auto past_end = static_cast<std::uint32_t>(net.cycles() + 2);
  net.provenance.binds.push_back(ProvenanceBind{past_end, 0, 1});
  ASSERT_NO_THROW(compact_slots(net));
  const sim::SlotId held = net.ops[0].dst;
  EXPECT_EQ(net.provenance.binds[0].slot, held);
  EXPECT_NE(net.ops[1].dst, held);
  EXPECT_TRUE(net.stats.compacted);
}

}  // namespace
}  // namespace sysdp::compile
