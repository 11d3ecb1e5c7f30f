#include "netlist/compiled.hpp"

#include <algorithm>

#include "netlist/levelize.hpp"

namespace socfmea::netlist {

CompiledDesign::CompiledDesign(const Netlist& nl) : nl_(&nl) {
  nl.check();
  const std::size_t nNets = nl.netCount();
  const std::size_t nCells = nl.cellCount();

  // Per-cell mirrors.
  cellType_.reserve(nCells);
  cellOutput_.reserve(nCells);
  for (CellId id = 0; id < nCells; ++id) {
    const Cell& c = nl.cell(id);
    cellType_.push_back(c.type);
    cellOutput_.push_back(c.output);
  }

  // Levelization, then bucket the combinational cells by level (CellId
  // ascending within a level — a deterministic topological order).
  const Levelization lev = levelize(nl);
  const std::uint32_t levels =
      lev.order.empty() ? 0 : lev.maxLevel + 1;
  std::vector<std::uint32_t> widthOf(levels, 0);
  for (CellId id : lev.order) ++widthOf[lev.level[id]];
  levelOffset_.assign(levels + 1, 0);
  for (std::uint32_t l = 0; l < levels; ++l) {
    levelOffset_[l + 1] = levelOffset_[l] + widthOf[l];
  }
  combCell_.resize(lev.order.size());
  combLevel_.resize(lev.order.size());
  posOfCell_.assign(nCells, kNoPos);
  {
    std::vector<std::uint32_t> next(levelOffset_.begin(),
                                    levelOffset_.end() - 1);
    for (CellId id = 0; id < nCells; ++id) {
      if (!isCombinational(cellType_[id])) continue;
      const std::uint32_t l = lev.level[id];
      const std::uint32_t pos = next[l]++;
      combCell_[pos] = id;
      combLevel_[pos] = l;
      posOfCell_[id] = pos;
    }
  }

  // CSR fanin: connected input nets per cell, pin order preserved.
  faninOffset_.assign(nCells + 1, 0);
  for (CellId id = 0; id < nCells; ++id) {
    std::uint32_t pins = 0;
    for (NetId in : nl.cell(id).inputs) pins += in != kNoNet ? 1 : 0;
    faninOffset_[id + 1] = faninOffset_[id] + pins;
  }
  faninNets_.resize(faninOffset_[nCells]);
  {
    std::size_t w = 0;
    for (CellId id = 0; id < nCells; ++id) {
      for (NetId in : nl.cell(id).inputs) {
        if (in != kNoNet) faninNets_[w++] = in;
      }
    }
  }

  // CSR fanout: reading cells per net, one entry per pin, in the same order
  // Netlist::connectInput() built Net::fanout (CellId ascending, pin order).
  fanoutOffset_.assign(nNets + 1, 0);
  for (NetId in : faninNets_) ++fanoutOffset_[in + 1];
  for (std::size_t n = 0; n < nNets; ++n) {
    fanoutOffset_[n + 1] += fanoutOffset_[n];
  }
  fanoutCells_.resize(faninNets_.size());
  {
    std::vector<std::uint32_t> next(fanoutOffset_.begin(),
                                    fanoutOffset_.end() - 1);
    for (CellId id = 0; id < nCells; ++id) {
      for (NetId in : nl.cell(id).inputs) {
        if (in != kNoNet) fanoutCells_[next[in]++] = id;
      }
    }
  }

  // Net sources.
  netSource_.assign(nNets, NetSource{});
  for (CellId id = 0; id < nCells; ++id) {
    const NetId out = cellOutput_[id];
    if (out == kNoNet) continue;
    NetSource& s = netSource_[out];
    s.id = id;
    switch (cellType_[id]) {
      case CellType::Input: s.kind = NetSourceKind::Input; break;
      case CellType::Dff: s.kind = NetSourceKind::Ff; break;
      default: s.kind = NetSourceKind::Comb; break;
    }
  }
  for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
    const MemoryInst& mem = nl.memory(m);
    for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
      NetSource& s = netSource_[mem.rdata[b]];
      s.kind = NetSourceKind::Memory;
      s.id = m;
      s.bit = static_cast<std::uint32_t>(b);
    }
  }

  // Index tables (creation order, matching the Netlist query helpers).
  for (CellId id = 0; id < nCells; ++id) {
    switch (cellType_[id]) {
      case CellType::Input: inputs_.push_back(id); break;
      case CellType::Output: outputs_.push_back(id); break;
      case CellType::Dff: {
        const Cell& c = nl.cell(id);
        ffs_.push_back(id);
        ffD_.push_back(c.inputs[DffPins::kD]);
        ffEn_.push_back(c.inputs[DffPins::kEn]);
        ffRst_.push_back(c.inputs[DffPins::kRst]);
        ffInit_.push_back(c.dffInit ? 1 : 0);
        break;
      }
      default: break;
    }
  }

  // Memory write-port sinks CSR (net -> memories it feeds).
  memSinkOffset_.assign(nNets + 1, 0);
  const auto eachMemPin = [&](auto&& visit) {
    for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
      const MemoryInst& mem = nl.memory(m);
      for (NetId n : mem.addr) visit(n, m);
      for (NetId n : mem.wdata) visit(n, m);
      visit(mem.writeEnable, m);
      if (mem.readEnable != kNoNet) visit(mem.readEnable, m);
    }
  };
  eachMemPin([&](NetId n, MemoryId) { ++memSinkOffset_[n + 1]; });
  for (std::size_t n = 0; n < nNets; ++n) {
    memSinkOffset_[n + 1] += memSinkOffset_[n];
  }
  memSinkIds_.resize(memSinkOffset_[nNets]);
  {
    std::vector<std::uint32_t> next(memSinkOffset_.begin(),
                                    memSinkOffset_.end() - 1);
    eachMemPin([&](NetId n, MemoryId m) { memSinkIds_[next[n]++] = m; });
  }
}

CompiledDesign::Stats CompiledDesign::stats() const noexcept {
  Stats s;
  s.levels = levelCount();
  for (std::uint32_t l = 0; l < s.levels; ++l) {
    s.maxLevelWidth =
        std::max(s.maxLevelWidth, levelOffset_[l + 1] - levelOffset_[l]);
  }
  s.combCells = combCell_.size();
  s.fanoutEdges = fanoutCells_.size();
  return s;
}

CompiledDesignPtr compile(const Netlist& nl) {
  return std::make_shared<const CompiledDesign>(nl);
}

}  // namespace socfmea::netlist
