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

void check_live(Cost held, std::int64_t live, const char* site) {
  if (held != live) {
    bail(site,
         "narrated binding disagrees with the oracle's live value (slot "
         "holds " +
             std::to_string(held) + ", oracle observed " +
             std::to_string(live) + ") — a model mis-narrated a write");
  }
}

}  // namespace

Recorder::Recorder(const sim::NarrationExtent& extent) {
  ops_.reserve(extent.ops);
  expected_.reserve(extent.ops);
  op_lane_.reserve(extent.ops);
  // Every op writes one fresh slot and binds it to one lane, and a lane's
  // first touch interns at most one reset constant and makes its one
  // reset bind, which finish() moves to the front of binds_.  Reserved
  // for that plus one literal constant; pair ops, further constants and
  // extra binds grow the vectors past it.
  slots_.reserve(extent.ops + extent.lanes + 1);
  reset_binds_.reserve(extent.lanes);
  binds_.reserve(extent.ops + extent.lanes);
  rehash(capacity_for(extent.lanes));
}

std::size_t Recorder::capacity_for(std::uint64_t lanes) {
  std::size_t capacity = 64;
  while (4 * lanes > 3 * capacity) capacity *= 2;
  return capacity;
}

sim::SlotId Recorder::alloc(Cost value) {
  if (slots_.size() >= std::numeric_limits<sim::SlotId>::max() - 1) {
    bail("alloc", "slot file exceeds 32-bit index space");
  }
  slots_.push_back({value, Provenance::kNone, 0});
  return static_cast<sim::SlotId>(slots_.size() - 1);
}

Cost Recorder::value_of(sim::SlotId slot, const char* site) const {
  if (slot >= slots_.size()) bail(site, "slot id out of range");
  for (const Recent& r : recent_) {
    if (r.slot == slot) return r.value;
  }
  return slots_[slot].value;
}

const Recorder::SlotRec& Recorder::slot_rec(sim::SlotId slot,
                                            const char* site) const {
  if (slot >= slots_.size()) bail(site, "slot id out of range");
  return slots_[slot];
}

sim::SlotId Recorder::emit(Op op, Cost result) {
  const auto index = static_cast<std::uint32_t>(ops_.size());
  op.param = index;
  slots_[op.dst].def_op = index;
  ops_.push_back(op);
  expected_.push_back(result);
  op_lane_.push_back(Provenance::kNone);
  return handed(op.dst, result);
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

void Recorder::rehash(std::size_t capacity) {
  std::vector<LaneEntry> old = std::move(table_);
  table_.assign(capacity, LaneEntry{});
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const LaneEntry& e : old) {
    if (e.lane != Provenance::kNone) table_[probe(e.key)] = e;
  }
  last_ = nullptr;
}

Recorder::LaneEntry& Recorder::intern(const void* key, bool& fresh) {
  fresh = false;
  // A fold reads its cell's lane and then binds it: one probe serves both.
  if (last_ != nullptr && last_->key == key) return *last_;
  if (4 * (static_cast<std::uint64_t>(num_lanes_) + 1) > 3 * table_.size()) {
    rehash(std::max(capacity_for(num_lanes_ + 1), 2 * table_.size()));
  }
  LaneEntry& e = table_[probe(key)];
  if (e.lane == Provenance::kNone) {
    fresh = true;
    e.key = key;
    e.lane = num_lanes_++;
  }
  last_ = &e;
  return e;
}

void Recorder::record_bind(LaneEntry& lane, sim::SlotId slot, Cost value,
                           std::uint32_t stamp) {
  // Rebinding a lane to the slot it already points at carries no waveform
  // information — skip the event, mirroring the copy-elision dedup.
  if (lane.slot == slot) return;
  lane.slot = slot;
  lane.value = value;
  (stamp == 0 ? reset_binds_ : binds_).push_back({stamp, lane.lane, slot});
  // First-bind-wins op attribution: the op that defined this slot belongs
  // to the module whose register first captures its result.
  const std::uint32_t def = slots_[slot].def_op;
  if (def != Provenance::kNone && op_lane_[def] == Provenance::kNone) {
    op_lane_[def] = lane.lane;
  }
}

void Recorder::rebind(const void* key, sim::SlotId slot, Cost value) {
  bool fresh = false;
  LaneEntry& lane = intern(key, fresh);
  if (!fresh && lane.slot != slot) ++copies_elided_;
  // During cycle t the cycle index holds t+1 entries, so this stamp is
  // t+1 — the VCD time at which the interpreted run reports the change.
  record_bind(lane, slot, value,
              static_cast<std::uint32_t>(cycle_off_.size()));
}

sim::SlotId Recorder::constant(std::int64_t value) {
  const auto it = const_cache_.find(value);
  if (it != const_cache_.end()) {
    ++consts_interned_;
    return handed(it->second, value);
  }
  const sim::SlotId s = alloc(value);
  init_.push_back({s, value});
  const_cache_.emplace(value, s);
  return handed(s, value);
}

sim::SlotId Recorder::constant_pair(std::int64_t value, std::int64_t arg) {
  const auto key = std::make_pair(value, arg);
  const auto it = const_pair_cache_.find(key);
  if (it != const_pair_cache_.end()) {
    ++consts_interned_;
    return handed(it->second, value);
  }
  const sim::SlotId s = alloc(value);  // arg must land at s + 1
  const sim::SlotId a = alloc(arg);
  slots_[s].pair_head = 1;
  init_.push_back({s, value});
  init_.push_back({a, arg});
  const_pair_cache_.emplace(key, s);
  return handed(s, value);
}

sim::SlotId Recorder::lane(const void* key, std::int64_t live) {
  bool fresh = false;
  LaneEntry& lane = intern(key, fresh);
  if (!fresh) {
    check_live(lane.value, live, "lane");
    return handed(lane.slot, lane.value);
  }
  // First touch: the oracle observed this lane's reset value — intern it,
  // so initial state is captured without any per-array bookkeeping.  The
  // bind carries stamp 0: the register has held this value since reset.
  const sim::SlotId s = constant(live);
  record_bind(lane, s, live, 0);
  return s;
}

sim::SlotId Recorder::lane_pair(const void* key, std::int64_t live,
                                std::int64_t arg) {
  bool fresh = false;
  LaneEntry& lane = intern(key, fresh);
  if (!fresh) {
    if (slots_[lane.slot].pair_head == 0) {
      bail("lane_pair", "lane is bound to a scalar slot");
    }
    check_live(lane.value, live, "lane_pair");
    check_live(slots_[lane.slot + 1].value, arg, "lane_pair(arg)");
    return handed(lane.slot, lane.value);
  }
  const sim::SlotId s = constant_pair(live, arg);
  record_bind(lane, s, live, 0);
  return s;
}

void Recorder::bind_now(const void* key, sim::SlotId slot) {
  rebind(key, slot, value_of(slot, "bind_now"));
}

void Recorder::bind_staged(const void* key, sim::SlotId slot) {
  staged_.push_back({key, slot, value_of(slot, "bind_staged")});
}

sim::SlotId Recorder::mac(sim::SlotId base, std::int64_t w, sim::SlotId x) {
  const Cost result =
      kern::mac<MinPlus>(value_of(base, "mac"), w, value_of(x, "mac"));
  return emit({alloc(result), base, x, 0, w, OpKind::kMac, 0}, result);
}

sim::SlotId Recorder::fold(sim::SlotId best, sim::SlotId left,
                           sim::SlotId right, std::int64_t local) {
  const Cost cand = kern::interval_candidate(
      value_of(left, "fold"), value_of(right, "fold"), local);
  const Cost prev = value_of(best, "fold");
  const Cost result = cand < prev ? cand : prev;
  return emit({alloc(result), best, left, right, local, OpKind::kFold, 0},
              result);
}

sim::SlotId Recorder::relax(sim::SlotId pair, sim::SlotId kh,
                            std::int64_t edge, std::int64_t station) {
  if (slot_rec(pair, "relax").pair_head == 0) {
    bail("relax", "source is not a pair slot");
  }
  const Cost cand = sat_add(value_of(kh, "relax"), edge);
  const Cost prev = value_of(pair, "relax");
  const bool better = cand < prev;
  const Cost result = better ? cand : prev;
  const sim::SlotId dst = alloc(result);
  // Adjacency is guaranteed by consecutive alloc calls.
  (void)alloc(better ? station : value_of(pair + 1, "relax(arg)"));
  slots_[dst].pair_head = 1;
  return emit({dst, pair, kh, static_cast<sim::SlotId>(station), edge,
               OpKind::kRelax, 0},
              result);
}

void Recorder::output(std::string_view tag, std::uint64_t index,
                      sim::SlotId slot, std::int64_t observed) {
  check_live(value_of(slot, "output"), observed, "output");
  auto by_tag = std::find_if(output_index_.begin(), output_index_.end(),
                             [&](const auto& e) { return e.first == tag; });
  if (by_tag == output_index_.end()) {
    by_tag = output_index_.emplace(output_index_.end(), std::string(tag),
                                   std::unordered_map<std::uint64_t,
                                                      std::size_t>{});
  }
  const auto [it, fresh] = by_tag->second.try_emplace(index, outputs_.size());
  if (!fresh) {
    outputs_[it->second].slot = slot;
    outputs_[it->second].expected = observed;
    return;
  }
  outputs_.push_back({by_tag->first, index, slot, observed});
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
  for (const Staged& s : staged_) rebind(s.key, s.slot, s.value);
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
  net.provenance.lanes.resize(num_lanes_);
  for (std::size_t i = 0; i < net.provenance.lanes.size(); ++i) {
    net.provenance.lanes[i].label = "lane" + std::to_string(i);
  }
  binds_.insert(binds_.begin(), reset_binds_.begin(), reset_binds_.end());
  net.provenance.binds = std::move(binds_);
  net.provenance.op_lane = std::move(op_lane_);
  net.stats.copies_elided = copies_elided_;
  net.stats.consts_interned = consts_interned_;
  net.stats.lanes_bound = num_lanes_;
  return net;
}

}  // namespace sysdp::compile
