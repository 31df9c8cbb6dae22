#include "compile/recorder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "semiring/closed_semiring.hpp"
#include "semiring/kernels.hpp"

namespace sysdp::compile {

namespace {

[[noreturn]] void bail(const char* site, const std::string& what) {
  throw std::logic_error(std::string("compile::Recorder::") + site + ": " +
                         what);
}

}  // namespace

sim::SlotId Recorder::alloc(Cost value) {
  if (slots_.size() >= std::numeric_limits<sim::SlotId>::max() - 1) {
    bail("alloc", "slot file exceeds 32-bit index space");
  }
  slots_.push_back({value, Provenance::kNone, 0});
  return static_cast<sim::SlotId>(slots_.size() - 1);
}

const Recorder::SlotRec& Recorder::slot_rec(sim::SlotId slot,
                                            const char* site) const {
  if (slot >= slots_.size()) bail(site, "slot id out of range");
  return slots_[slot];
}

std::size_t Recorder::probe(const void* key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread arena lanes
  // (consecutive addresses a few bytes apart) across the whole table.
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (reinterpret_cast<std::uintptr_t>(key) * 0x9e3779b97f4a7c15ull) >>
      shift_);
  while (table_[i].lane != Provenance::kNone && table_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void Recorder::grow() {
  std::vector<KeyLane> old = std::move(table_);
  const std::size_t capacity = std::max<std::size_t>(64, 2 * old.size());
  table_.assign(capacity, KeyLane{});
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const KeyLane& e : old) {
    if (e.lane != Provenance::kNone) table_[probe(e.key)] = e;
  }
}

std::uint32_t Recorder::intern(const void* key, bool& fresh) {
  if (2 * (lane_slot_.size() + 1) > table_.size()) grow();
  KeyLane& e = table_[probe(key)];
  fresh = e.lane == Provenance::kNone;
  if (fresh) {
    e = {key, static_cast<std::uint32_t>(lane_slot_.size())};
    lane_slot_.push_back(Provenance::kNone);
  }
  return e.lane;
}

void Recorder::record_bind(std::uint32_t lane, sim::SlotId slot,
                           std::uint32_t stamp) {
  // Rebinding a lane to the slot it already points at carries no waveform
  // information — skip the event, mirroring the copy-elision dedup.
  if (lane_slot_[lane] == slot) return;
  lane_slot_[lane] = slot;
  (stamp == 0 ? reset_binds_ : binds_).push_back({stamp, lane, slot});
  // First-bind-wins op attribution: the op that defined this slot belongs
  // to the module whose register first captures its result.
  const std::uint32_t def = slots_[slot].def_op;
  if (def != Provenance::kNone && op_lane_[def] == Provenance::kNone) {
    op_lane_[def] = lane;
  }
}

void Recorder::rebind(const void* key, sim::SlotId slot) {
  bool fresh = false;
  const std::uint32_t lane = intern(key, fresh);
  if (!fresh && lane_slot_[lane] != slot) ++copies_elided_;
  // During cycle t the cycle index holds t+1 entries, so this stamp is
  // t+1 — the VCD time at which the interpreted run reports the change.
  record_bind(lane, slot, static_cast<std::uint32_t>(cycle_off_.size()));
}

Cost Recorder::concrete(sim::SlotId slot, const char* site) const {
  return slot_rec(slot, site).value;
}

void Recorder::check_live(sim::SlotId slot, std::int64_t live,
                          const char* site) const {
  if (concrete(slot, site) != live) {
    bail(site,
         "narrated binding disagrees with the oracle's live value (slot "
         "holds " +
             std::to_string(slots_[slot].value) + ", oracle observed " +
             std::to_string(live) + ") — a model mis-narrated a write");
  }
}

sim::SlotId Recorder::constant(std::int64_t value) {
  const auto it = const_cache_.find(value);
  if (it != const_cache_.end()) {
    ++consts_interned_;
    return it->second;
  }
  const sim::SlotId s = alloc(value);
  init_.push_back({s, value});
  const_cache_.emplace(value, s);
  return s;
}

sim::SlotId Recorder::constant_pair(std::int64_t value, std::int64_t arg) {
  const auto key = std::make_pair(value, arg);
  const auto it = const_pair_cache_.find(key);
  if (it != const_pair_cache_.end()) {
    ++consts_interned_;
    return it->second;
  }
  const sim::SlotId s = alloc(value);  // arg must land at s + 1
  const sim::SlotId a = alloc(arg);
  slots_[s].pair_head = 1;
  init_.push_back({s, value});
  init_.push_back({a, arg});
  const_pair_cache_.emplace(key, s);
  return s;
}

sim::SlotId Recorder::lane(const void* key, std::int64_t live) {
  bool fresh = false;
  const std::uint32_t lane = intern(key, fresh);
  if (!fresh) {
    check_live(lane_slot_[lane], live, "lane");
    return lane_slot_[lane];
  }
  // First touch: the oracle observed this lane's reset value — intern it,
  // so initial state is captured without any per-array bookkeeping.  The
  // bind carries stamp 0: the register has held this value since reset.
  const sim::SlotId s = constant(live);
  record_bind(lane, s, 0);
  return s;
}

sim::SlotId Recorder::lane_pair(const void* key, std::int64_t live,
                                std::int64_t arg) {
  bool fresh = false;
  const std::uint32_t lane = intern(key, fresh);
  if (!fresh) {
    const sim::SlotId s = lane_slot_[lane];
    if (slots_[s].pair_head == 0) {
      bail("lane_pair", "lane is bound to a scalar slot");
    }
    check_live(s, live, "lane_pair");
    check_live(s + 1, arg, "lane_pair(arg)");
    return s;
  }
  const sim::SlotId s = constant_pair(live, arg);
  record_bind(lane, s, 0);
  return s;
}

sim::SlotId Recorder::pending(const void* key, std::int64_t live) {
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->first == key) {
      check_live(it->second, live, "pending");
      return it->second;
    }
  }
  return lane(key, live);
}

void Recorder::bind_now(const void* key, sim::SlotId slot) {
  (void)concrete(slot, "bind_now");
  rebind(key, slot);
}

void Recorder::bind_staged(const void* key, sim::SlotId slot) {
  (void)concrete(slot, "bind_staged");
  staged_.emplace_back(key, slot);
}

sim::SlotId Recorder::mac(sim::SlotId base, std::int64_t w, sim::SlotId x) {
  const Cost result =
      kern::mac<MinPlus>(concrete(base, "mac"), w, concrete(x, "mac"));
  const sim::SlotId dst = alloc(result);
  ops_.push_back({dst, base, x, 0, w, OpKind::kMac,
                  static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(result);
  slots_[dst].def_op = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

sim::SlotId Recorder::fold(sim::SlotId best, sim::SlotId left,
                           sim::SlotId right, std::int64_t local) {
  const Cost cand = kern::interval_candidate(
      concrete(left, "fold"), concrete(right, "fold"), local);
  const Cost prev = concrete(best, "fold");
  const Cost result = cand < prev ? cand : prev;
  const sim::SlotId dst = alloc(result);
  ops_.push_back({dst, best, left, right, local, OpKind::kFold,
                  static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(result);
  slots_[dst].def_op = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

sim::SlotId Recorder::relax(sim::SlotId pair, sim::SlotId kh,
                            std::int64_t edge, std::int64_t station) {
  if (slot_rec(pair, "relax").pair_head == 0) {
    bail("relax", "source is not a pair slot");
  }
  const Cost cand = sat_add(concrete(kh, "relax"), edge);
  const Cost prev = concrete(pair, "relax");
  const bool better = cand < prev;
  const sim::SlotId dst = alloc(better ? cand : prev);
  const sim::SlotId darg =
      alloc(better ? station : concrete(pair + 1, "relax(arg)"));
  (void)darg;  // adjacency is guaranteed by consecutive alloc calls
  slots_[dst].pair_head = 1;
  ops_.push_back({dst, pair, kh, static_cast<sim::SlotId>(station), edge,
                  OpKind::kRelax, static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(slots_[dst].value);
  slots_[dst].def_op = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

void Recorder::output(std::string_view tag, std::uint64_t index,
                      sim::SlotId slot, std::int64_t observed) {
  check_live(slot, observed, "output");
  const auto key = std::make_pair(std::string(tag), index);
  const auto it = output_index_.find(key);
  if (it != output_index_.end()) {
    outputs_[it->second].slot = slot;
    outputs_[it->second].expected = observed;
    return;
  }
  output_index_.emplace(key, outputs_.size());
  outputs_.push_back({key.first, index, slot, observed});
}

void Recorder::output_arg(std::string_view tag, std::uint64_t index,
                          sim::SlotId pair, std::int64_t observed) {
  if (slot_rec(pair, "output_arg").pair_head == 0) {
    bail("output_arg", "slot is not a pair head");
  }
  output(tag, index, pair + 1, observed);
}

void Recorder::on_cycle(const sim::Engine& engine, sim::Cycle t) {
  (void)engine;
  (void)t;
  // The commit edge: staged rebinds become visible, in narration order
  // (each lane is staged at most once per cycle by two-phase discipline).
  // Bind stamps are taken before the level closes, so a commit during
  // cycle t lands at stamp t+1 like the bind_now path.
  for (const auto& [key, slot] : staged_) rebind(key, slot);
  staged_.clear();
  cycle_off_.push_back(static_cast<std::uint32_t>(ops_.size()));
}

CompiledNetlist Recorder::finish(bool parameterise) {
  if (finished_) bail("finish", "recorder already finished");
  finished_ = true;
  if (!staged_.empty()) {
    bail("finish", "staged binds left dangling — oracle stopped mid-cycle");
  }
  if (ops_.size() != expected_.size() ||
      cycle_off_.back() != ops_.size()) {
    bail("finish", "op tape and cycle index disagree");
  }
  CompiledNetlist net;
  net.semiring = TapeSemiring::kMinPlus;
  net.num_slots = static_cast<std::uint32_t>(slots_.size());
  net.init = std::move(init_);
  net.ops = std::move(ops_);
  net.cycle_off = std::move(cycle_off_);
  net.expected = std::move(expected_);
  net.outputs = std::move(outputs_);
  if (parameterise) {
    // The oracle binding: one parameter per op, holding the weight the
    // oracle ran with.  op.param already names each op's parameter.
    net.parameterised = true;
    net.params.reserve(net.ops.size());
    for (const Op& op : net.ops) net.params.push_back(op.w);
  }
  // Provenance plane: unnamed lane records (lowering names them from the
  // declared ports once the oracle run is sealed), bind events sorted by
  // stamp with narration order kept within one stamp — the reset binds,
  // then the committed ones, which arrived in stamp order — and the
  // per-op lane attribution.
  net.provenance.lanes.resize(lane_slot_.size());
  for (std::size_t i = 0; i < net.provenance.lanes.size(); ++i) {
    net.provenance.lanes[i].label = "lane" + std::to_string(i);
  }
  reset_binds_.insert(reset_binds_.end(), binds_.begin(), binds_.end());
  net.provenance.binds = std::move(reset_binds_);
  net.provenance.op_lane = std::move(op_lane_);
  net.stats.copies_elided = copies_elided_;
  net.stats.consts_interned = consts_interned_;
  net.stats.lanes_bound = lane_slot_.size();
  return net;
}

}  // namespace sysdp::compile
