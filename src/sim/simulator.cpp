#include "sim/simulator.hpp"

#include <stdexcept>

namespace socfmea::sim {

using netlist::CellId;
using netlist::CellType;
using netlist::CompiledDesign;
using netlist::kNoNet;
using netlist::MemoryId;
using netlist::MemoryInst;
using netlist::NetId;
using netlist::NetSource;
using netlist::NetSourceKind;

Simulator::Simulator(const netlist::Netlist& nl)
    : Simulator(netlist::compile(nl)) {}

Simulator::Simulator(netlist::CompiledDesignPtr cd)
    : cd_(std::move(cd)), nl_(cd_->design()) {
  initState();
  reset();
}

void Simulator::initState() {
  netVal_.assign(cd_->netCount(), Logic::L0);
  ffState_.assign(cd_->cellCount(), Logic::L0);
  ffPrevD_.assign(cd_->cellCount(), Logic::L0);
  inputVal_.assign(cd_->cellCount(), Logic::L0);
  stale_.assign(cd_->cellCount(), false);
  mems_.reserve(nl_.memoryCount());
  memRdataReg_.reserve(nl_.memoryCount());
  for (const MemoryInst& m : nl_.memories()) {
    mems_.emplace_back(m.addrBits, m.dataBits);
    memRdataReg_.emplace_back(m.dataBits, Logic::L0);
  }
  netDirty_.assign(cd_->netCount(), 0);
  cellDirty_.assign(cd_->combCount(), 0);
  levelBucket_.assign(cd_->levelCount(), {});
  insScratch_.reserve(4);
}

void Simulator::reset() {
  cycle_ = 0;
  const auto& ffs = cd_->ffs();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    ffState_[ffs[i]] = fromBool(cd_->ffInit(i));
    ffPrevD_[ffs[i]] = fromBool(cd_->ffInit(i));
  }
  for (auto& reg : memRdataReg_) {
    std::fill(reg.begin(), reg.end(), Logic::L0);
  }
  fullDirty_ = true;
  dirty_ = true;
  evalComb();
}

void Simulator::setInput(NetId net, Logic v) {
  const NetSource& src = cd_->netSource(net);
  if (src.kind != NetSourceKind::Input) {
    throw std::invalid_argument("setInput on a non-input net");
  }
  inputVal_[src.id] = v;
  markNetDirty(net);
}

void Simulator::setInput(std::string_view name, bool v) {
  const auto id = nl_.findNet(name);
  if (!id) throw std::invalid_argument("no such net: " + std::string(name));
  setInput(*id, fromBool(v));
}

void Simulator::setInputBus(const netlist::Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    setInput(bus[i], fromBool((value >> i) & 1u));
  }
}

Logic Simulator::value(std::string_view netName) const {
  const auto id = nl_.findNet(netName);
  if (!id) throw std::invalid_argument("no such net: " + std::string(netName));
  return value(*id);
}

std::uint64_t Simulator::busValue(const netlist::Bus& bus) const {
  ensureSettled();
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size() && i < 64; ++i) {
    if (netVal_[bus[i]] == Logic::L1) v |= std::uint64_t{1} << i;
  }
  return v;
}

void Simulator::writeNet(NetId net, Logic v) {
  if (!forces_.empty()) {
    const auto f = forces_.find(net);
    if (f != forces_.end()) {
      netVal_[net] = f->second;
      return;
    }
  }
  netVal_[net] = v;
}

void Simulator::markNetDirty(NetId net) {
  dirty_ = true;
  if (fullDirty_) return;  // a whole-graph settle is already pending
  if (!netDirty_[net]) {
    netDirty_[net] = 1;
    dirtyNets_.push_back(net);
  }
}

void Simulator::markCellDirty(std::uint32_t pos) {
  if (!cellDirty_[pos]) {
    cellDirty_[pos] = 1;
    levelBucket_[cd_->combLevel(pos)].push_back(pos);
  }
}

void Simulator::clearDirtyMarks() {
  for (NetId n : dirtyNets_) netDirty_[n] = 0;
  dirtyNets_.clear();
}

void Simulator::propagateNet(NetId net, Logic v) {
  if (!forces_.empty()) {
    const auto f = forces_.find(net);
    if (f != forces_.end()) v = f->second;
  }
  if (netVal_[net] == v) return;
  netVal_[net] = v;
  for (CellId sink : cd_->fanout(net)) {
    const std::uint32_t pos = cd_->posOfCell(sink);
    if (pos != CompiledDesign::kNoPos) markCellDirty(pos);
  }
}

void Simulator::settleFull() {
  ++perf_.combEvals;
  ++perf_.fullSettles;
  perf_.cellEvals += cd_->combCount();
  // Sources: inputs, FF outputs, memory read registers.
  for (CellId id : cd_->inputs()) {
    writeNet(cd_->cellOutput(id), inputVal_[id]);
  }
  const auto& ffs = cd_->ffs();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    writeNet(cd_->ffOutput(i), ffState_[ffs[i]]);
  }
  for (MemoryId m = 0; m < nl_.memoryCount(); ++m) {
    const MemoryInst& mem = nl_.memory(m);
    for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
      writeNet(mem.rdata[b], memRdataReg_[m][b]);
    }
  }
  // One levelized pass settles all combinational cells.
  const std::uint32_t count = cd_->combCount();
  for (std::uint32_t pos = 0; pos < count; ++pos) {
    insScratch_.clear();
    for (NetId in : cd_->combInputs(pos)) insScratch_.push_back(netVal_[in]);
    writeNet(cd_->combOutput(pos), evalCell(cd_->combType(pos), insScratch_));
  }
}

// The event-driven sweep is the serial campaign's hot loop.  Pinning it to a
// cache line keeps its fetch alignment independent of how much code the
// linker places before this file: shifted by deletions elsewhere, it measured
// about 10 % slower end to end on the perfbench memsys workloads.
[[gnu::aligned(64)]] void Simulator::settleEvent() {
  ++perf_.combEvals;
  ++perf_.eventSettles;
  // Seed: refresh each dirty net from its source.  Nets driven by a gate
  // (forced/released mid-cycle) re-evaluate the gate during the sweep.
  for (NetId n : dirtyNets_) {
    netDirty_[n] = 0;
    const NetSource& src = cd_->netSource(n);
    Logic v = Logic::L0;
    switch (src.kind) {
      case NetSourceKind::Comb: {
        markCellDirty(cd_->posOfCell(src.id));
        continue;
      }
      case NetSourceKind::Input:
        v = inputVal_[src.id];
        break;
      case NetSourceKind::Ff:
        v = ffState_[src.id];
        break;
      case NetSourceKind::Memory:
        v = memRdataReg_[src.id][src.bit];
        break;
      case NetSourceKind::None:
        continue;
    }
    propagateNet(n, v);
  }
  dirtyNets_.clear();
  // Level sweep: a gate's readers sit at strictly higher levels, so each
  // bucket is complete by the time the sweep reaches it.
  for (auto& bucket : levelBucket_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t pos = bucket[i];
      cellDirty_[pos] = 0;
      ++perf_.cellEvals;
      insScratch_.clear();
      for (NetId in : cd_->combInputs(pos)) insScratch_.push_back(netVal_[in]);
      propagateNet(cd_->combOutput(pos),
                   evalCell(cd_->combType(pos), insScratch_));
    }
    bucket.clear();
  }
}

void Simulator::evalComb() {
  dirty_ = false;
  // Bridging faults need the legacy two-pass whole-graph resolve.
  const bool full =
      mode_ == EvalMode::FullSettle || fullDirty_ || !bridges_.empty();
  if (!full) {
    settleEvent();
    return;
  }
  clearDirtyMarks();
  settleFull();
  fullDirty_ = false;
  if (!bridges_.empty()) {
    // Resolve each bridge from the settled values, then force the resolved
    // values and settle again so downstream logic observes them.
    std::vector<std::pair<NetId, Logic>> resolved;
    for (const Bridge& br : bridges_) {
      const Logic va = netVal_[br.a];
      const Logic vb = netVal_[br.b];
      const Logic r = br.kind == BridgeKind::WiredAnd ? logicAnd(va, vb)
                                                      : logicOr(va, vb);
      resolved.emplace_back(br.a, r);
      resolved.emplace_back(br.b, r);
    }
    // Install as temporary forces (kept under any explicit user forces).
    std::vector<NetId> temp;
    for (const auto& [net, v] : resolved) {
      if (!forces_.contains(net)) {
        forces_.emplace(net, v);
        temp.push_back(net);
      }
    }
    settleFull();
    for (NetId n : temp) forces_.erase(n);
  }
}

void Simulator::clockEdge() {
  ++perf_.cycles;

  // Memory ports sample the settled combinational values.
  for (MemoryId m = 0; m < nl_.memoryCount(); ++m) {
    const MemoryInst& mem = nl_.memory(m);
    std::uint64_t addr = 0;
    for (std::size_t b = 0; b < mem.addr.size(); ++b) {
      if (netVal_[mem.addr[b]] == Logic::L1) addr |= std::uint64_t{1} << b;
    }
    const bool we = netVal_[mem.writeEnable] == Logic::L1;
    const bool re = mem.readEnable == kNoNet ||
                    netVal_[mem.readEnable] == Logic::L1;
    if (we) {
      std::uint64_t data = 0;
      for (std::size_t b = 0; b < mem.wdata.size(); ++b) {
        if (netVal_[mem.wdata[b]] == Logic::L1) data |= std::uint64_t{1} << b;
      }
      mems_[m].write(addr, data);
    }
    if (re) {
      const std::uint64_t data = mems_[m].read(addr);
      for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
        const Logic nv = fromBool((data >> b) & 1u);
        if (memRdataReg_[m][b] != nv) {
          memRdataReg_[m][b] = nv;
          markNetDirty(mem.rdata[b]);
        }
      }
    }
  }

  // Flip-flop capture.  Only state that actually changed dirties its output
  // net: an unchanged machine state settles to unchanged net values.
  const auto& ffs = cd_->ffs();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    const CellId id = ffs[i];
    const NetId rstNet = cd_->ffRst(i);
    const NetId enNet = cd_->ffEn(i);
    const Logic d = netVal_[cd_->ffD(i)];
    const Logic sampled = (anyStale_ && stale_[id]) ? ffPrevD_[id] : d;
    ffPrevD_[id] = d;

    Logic next;
    if (rstNet != kNoNet && netVal_[rstNet] == Logic::L1) {
      next = fromBool(cd_->ffInit(i));
    } else if (enNet != kNoNet && netVal_[enNet] == Logic::L0) {
      next = ffState_[id];  // hold
    } else {
      next = sampled;
    }
    if (ffState_[id] != next) {
      ffState_[id] = next;
      markNetDirty(cd_->ffOutput(i));
    }
  }
  ++cycle_;
}

void Simulator::step() {
  evalComb();
  clockEdge();
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

void Simulator::forceNet(NetId net, Logic v) {
  forces_[net] = v;
  markNetDirty(net);
}

void Simulator::releaseNet(NetId net) {
  forces_.erase(net);
  markNetDirty(net);
}

void Simulator::flipFf(CellId ff) {
  if (cd_->cellType(ff) != CellType::Dff) {
    throw std::invalid_argument("flipFf on a non-Dff cell");
  }
  ffState_[ff] = logicNot(ffState_[ff]);
  markNetDirty(cd_->cellOutput(ff));
}

void Simulator::setFfState(CellId ff, Logic v) {
  if (cd_->cellType(ff) != CellType::Dff) {
    throw std::invalid_argument("setFfState on a non-Dff cell");
  }
  ffState_[ff] = v;
  markNetDirty(cd_->cellOutput(ff));
}

void Simulator::addBridge(NetId a, NetId b, BridgeKind kind) {
  bridges_.push_back(Bridge{a, b, kind});
  dirty_ = true;
  fullDirty_ = true;
}

void Simulator::clearBridges() {
  bridges_.clear();
  dirty_ = true;
  fullDirty_ = true;
}

void Simulator::setStaleSampling(CellId ff, bool on) {
  if (cd_->cellType(ff) != CellType::Dff) {
    throw std::invalid_argument("setStaleSampling on a non-Dff cell");
  }
  stale_[ff] = on;
  anyStale_ = false;
  for (bool s : stale_) anyStale_ = anyStale_ || s;
}

}  // namespace socfmea::sim
