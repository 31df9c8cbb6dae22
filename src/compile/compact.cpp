#include "compile/compact.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/live_range.hpp"

namespace sysdp::compile {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;
constexpr std::uint32_t kPinned = TapeLiveness::kPinned;

}  // namespace

CompactStats compact_slots(CompiledNetlist& net) {
  CompactStats cs;
  cs.slots_before = net.num_slots;
  cs.slots_after = net.num_slots;
  const std::uint32_t n = net.num_slots;
  if (n == 0) {
    net.stats.compacted = true;
    return cs;
  }

  // --- grouping + liveness (compile/live_range.hpp): pair groups, plus
  // the last dependency level that touches each group.  Output slots are
  // pinned (verify_outputs reads them after the run).
  TapeLiveness lv = compute_liveness(net);
  const std::vector<std::uint32_t>& base = lv.base;
  const std::vector<std::uint32_t>& extent = lv.extent;
  std::vector<std::uint32_t>& last = lv.last;
  const auto cycles = static_cast<std::uint32_t>(net.cycles());

  // Provenance binds sample their slot at the end of level stamp-1 (the
  // VCD semantics in program.hpp), which can be after the op tape's own
  // last read — an elided copy keeps the *old* slot bound until the next
  // commit.  Extend each sampled group's range so the waveform adapters
  // always read the index before it is recycled.  kPinned groups stay
  // pinned (max() keeps the sentinel).
  for (const ProvenanceBind& b : net.provenance.binds) {
    if (b.stamp == 0 || b.slot >= n) continue;
    const std::uint32_t g = base[b.slot];
    last[g] = std::max(last[g], b.stamp - 1);
  }

  // --- expiry schedule: non-pinned groups in last-touch order, slot order
  // within one level, released just before the first level past their
  // last touch begins.  A stable counting sort over last-touch levels; its
  // table is sized from the largest last touch, not the level count,
  // because a bind stamp may lie past the tape's last level.
  const auto expires = [&](std::uint32_t s) {
    return base[s] == s && last[s] != kPinned;
  };
  std::uint32_t max_last = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (expires(s)) max_last = std::max(max_last, last[s]);
  }
  // start[t]: where the groups last touched in level t begin in expiry.
  std::vector<std::uint32_t> start(std::size_t{max_last} + 2, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (expires(s)) ++start[last[s] + 1];
  }
  for (std::size_t t = 1; t < start.size(); ++t) start[t] += start[t - 1];
  std::vector<std::uint32_t> expiry(start.back());
  for (std::uint32_t s = 0; s < n; ++s) {
    if (expires(s)) expiry[start[last[s]]++] = s;
  }

  // --- linear scan: allocate groups at their defining write (init entry
  // or op destination), recycle indices from expired groups, exact-size
  // free lists.  A virtual slot keeps its one physical index for the whole
  // tape; release only recycles the index for groups defined later.
  std::vector<std::uint32_t> new_of(n, kNone);
  std::vector<std::vector<std::uint32_t>> free_by_size(3);
  std::uint32_t next_phys = 0;
  const auto acquire = [&](std::uint32_t g) {
    if (new_of[g] != kNone) return;
    const std::uint32_t k = extent[g];
    std::uint32_t phys;
    if (k < free_by_size.size() && !free_by_size[k].empty()) {
      phys = free_by_size[k].back();
      free_by_size[k].pop_back();
    } else {
      phys = next_phys;
      next_phys += k;
    }
    for (std::uint32_t j = 0; j < k; ++j) new_of[g + j] = phys + j;
  };

  for (const SlotInit& si : net.init) acquire(base[si.slot]);
  std::size_t expired = 0;
  for (std::uint32_t t = 0; t < cycles; ++t) {
    while (expired < expiry.size() && last[expiry[expired]] < t) {
      const std::uint32_t g = expiry[expired++];
      if (new_of[g] == kNone) continue;  // touched but never defined: bail
                                         // below at the rewrite instead
      const std::uint32_t k = extent[g];
      if (free_by_size.size() <= k) free_by_size.resize(k + 1);
      free_by_size[k].push_back(new_of[g]);
    }
    for (std::uint32_t i = net.cycle_off[t]; i < net.cycle_off[t + 1]; ++i) {
      acquire(base[net.ops[i].dst]);
    }
  }

  // --- rewrite every slot reference through the new naming.
  const auto map = [&](sim::SlotId s) -> sim::SlotId {
    if (new_of[s] == kNone) {
      throw std::logic_error(
          "compile::compact_slots: slot " + std::to_string(s) +
          " is read but never written — broken lowering");
    }
    return new_of[s];
  };
  for (Op& op : net.ops) {
    op.dst = map(op.dst);
    op.a = map(op.a);
    op.b = map(op.b);
    // kFold's c is a slot; kRelax's c is a station immediate and kMac
    // leaves c unused — only the first is renamed.
    if (op.kind == OpKind::kFold) op.c = map(op.c);
  }
  for (SlotInit& si : net.init) si.slot = map(si.slot);
  for (Output& o : net.outputs) o.slot = map(o.slot);
  // Carry the provenance table through the renaming: every bound slot is
  // an init entry or an op destination, so it was acquired above.
  for (ProvenanceBind& b : net.provenance.binds) b.slot = map(b.slot);

  net.num_slots = next_phys;
  net.stats.compacted = true;
  net.stats.slots_uncompacted = cs.slots_before;
  cs.slots_after = next_phys;
  return cs;
}

}  // namespace sysdp::compile
