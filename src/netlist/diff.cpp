#include "netlist/diff.hpp"

#include <unordered_map>

namespace socfmea::netlist {

namespace {

/// Driver-based identity of a net: the cell name (cells are mandatory and
/// unique), or "memory:bit" for a registered read-data bit.  Net names are
/// deliberately ignored — the text writer invents "$n<id>" names for
/// anonymous nets, and a wire is the same wire however it is labelled.
struct NetIdentity {
  const Netlist* nl;
  std::unordered_map<NetId, std::string> memBit;  // rdata net -> "mem:bit"

  explicit NetIdentity(const Netlist& n) : nl(&n) {
    for (MemoryId m = 0; m < n.memoryCount(); ++m) {
      const MemoryInst& mem = n.memory(m);
      for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
        memBit[mem.rdata[b]] = mem.name + ":" + std::to_string(b);
      }
    }
  }

  [[nodiscard]] std::string of(NetId id) const {
    if (id == kNoNet) return "-";
    const Net& net = nl->net(id);
    if (net.driver != kNoCell) return nl->cell(net.driver).name;
    const auto it = memBit.find(id);
    if (it != memBit.end()) return "@m:" + it->second;
    return "@undriven:" + std::to_string(id);
  }
};

std::string cellSignature(const Netlist& nl, const NetIdentity& ident,
                          CellId c) {
  const Cell& cell = nl.cell(c);
  std::string sig = std::string(cellTypeName(cell.type));
  for (const NetId in : cell.inputs) {
    sig += '|';
    sig += ident.of(in);
  }
  if (cell.type == CellType::Dff && cell.dffInit) sig += "|init1";
  return sig;
}

std::string memSignature(const Netlist& nl, const NetIdentity& ident,
                         MemoryId m) {
  const MemoryInst& mem = nl.memory(m);
  std::string sig = std::to_string(mem.addrBits) + "x" +
                    std::to_string(mem.dataBits);
  for (const NetId n : mem.addr) sig += '|' + ident.of(n);
  for (const NetId n : mem.wdata) sig += '|' + ident.of(n);
  sig += "|we=" + ident.of(mem.writeEnable);
  sig += "|re=" + ident.of(mem.readEnable);
  return sig;
}

}  // namespace

NetlistDiff diff(const Netlist& a, const Netlist& b) {
  NetlistDiff d;
  const NetIdentity identA(a);
  const NetIdentity identB(b);

  std::unordered_map<std::string, CellId> cellsA;
  cellsA.reserve(a.cellCount());
  for (CellId c = 0; c < a.cellCount(); ++c) cellsA.emplace(a.cell(c).name, c);

  for (CellId c = 0; c < b.cellCount(); ++c) {
    const std::string& name = b.cell(c).name;
    const auto it = cellsA.find(name);
    bool touched = false;
    if (it == cellsA.end()) {
      d.addedCells.push_back(name);
      touched = true;
    } else if (cellSignature(a, identA, it->second) !=
               cellSignature(b, identB, c)) {
      d.changedCells.push_back(name);
      touched = true;
    }
    if (touched) {
      const NetId out = b.cell(c).output;
      if (out != kNoNet) d.seedNets.push_back(out);
    }
  }
  for (CellId c = 0; c < a.cellCount(); ++c) {
    if (!b.findCell(a.cell(c).name)) d.removedCells.push_back(a.cell(c).name);
  }

  std::unordered_map<std::string, MemoryId> memsA;
  for (MemoryId m = 0; m < a.memoryCount(); ++m) {
    memsA.emplace(a.memory(m).name, m);
  }
  for (MemoryId m = 0; m < b.memoryCount(); ++m) {
    const MemoryInst& mem = b.memory(m);
    const auto it = memsA.find(mem.name);
    bool touched = false;
    if (it == memsA.end()) {
      d.addedMems.push_back(mem.name);
      touched = true;
    } else if (memSignature(a, identA, it->second) !=
               memSignature(b, identB, m)) {
      d.changedMems.push_back(mem.name);
      touched = true;
    }
    if (touched) {
      for (const NetId n : mem.rdata) d.seedNets.push_back(n);
    }
  }
  for (MemoryId m = 0; m < a.memoryCount(); ++m) {
    bool present = false;
    for (MemoryId n = 0; n < b.memoryCount(); ++n) {
      if (b.memory(n).name == a.memory(m).name) present = true;
    }
    if (!present) d.removedMems.push_back(a.memory(m).name);
  }
  return d;
}

AffectedCone affectedCone(const CompiledDesign& cd, const NetlistDiff& d,
                          const std::vector<NetId>& extraSeedNets) {
  const Netlist& nl = cd.design();
  std::vector<NetId> seeds = d.seedNets;
  seeds.insert(seeds.end(), extraSeedNets.begin(), extraSeedNets.end());
  const ForwardReach fwd = forwardReach(cd, seeds);

  AffectedCone cone;
  cone.cell.assign(cd.cellCount(), 0);
  cone.mem.assign(nl.memoryCount(), 0);

  // Backward closure of D ∪ changed cells, crossing flip-flops (their fan-in
  // is walked like any cell's) and memories (a read feeding the set pulls in
  // the memory and its whole write side).
  std::vector<CellId> stack;
  const auto pushCell = [&](CellId c) {
    if (c != kNoCell && cone.cell[c] == 0) {
      cone.cell[c] = 1;
      stack.push_back(c);
    }
  };
  // Defined below pushNetSrc so the two can recurse through memory ports.
  std::vector<MemoryId> memStack;
  const auto pushMem = [&](MemoryId m) {
    if (cone.mem[m] == 0) {
      cone.mem[m] = 1;
      memStack.push_back(m);
    }
  };
  const auto pushNetSrc = [&](NetId n) {
    if (n == kNoNet) return;
    const NetSource& src = cd.netSource(n);
    switch (src.kind) {
      case NetSourceKind::Comb:
      case NetSourceKind::Input:
      case NetSourceKind::Ff:
        pushCell(src.id);
        break;
      case NetSourceKind::Memory:
        pushMem(src.id);
        break;
      case NetSourceKind::None:
        break;
    }
  };

  for (CellId c = 0; c < cd.cellCount(); ++c) {
    if (fwd.cell[c] != 0) pushCell(c);
  }
  for (const std::string& name : d.changedCells) {
    if (const auto c = nl.findCell(name)) pushCell(*c);
  }
  for (const std::string& name : d.addedCells) {
    if (const auto c = nl.findCell(name)) pushCell(*c);
  }
  for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
    if (fwd.mem[m] != 0) pushMem(m);
  }

  while (!stack.empty() || !memStack.empty()) {
    if (!memStack.empty()) {
      const MemoryId m = memStack.back();
      memStack.pop_back();
      const MemoryInst& mem = nl.memory(m);
      for (const NetId n : mem.addr) pushNetSrc(n);
      for (const NetId n : mem.wdata) pushNetSrc(n);
      pushNetSrc(mem.writeEnable);
      pushNetSrc(mem.readEnable);
      continue;
    }
    const CellId c = stack.back();
    stack.pop_back();
    for (const NetId n : cd.fanin(c)) pushNetSrc(n);
  }

  for (const char f : cone.cell) cone.affectedCells += f != 0 ? 1 : 0;
  return cone;
}

bool faultAffected(const AffectedCone& cone, const CompiledDesign& cd,
                   const fault::Fault& f) {
  const auto netAffected = [&](NetId n) -> bool {
    if (n == kNoNet || n >= cd.netCount()) return true;  // conservative
    const NetSource& src = cd.netSource(n);
    switch (src.kind) {
      case NetSourceKind::Comb:
      case NetSourceKind::Input:
      case NetSourceKind::Ff:
        return cone.cellAffected(src.id);
      case NetSourceKind::Memory:
        return cone.memAffected(src.id);
      case NetSourceKind::None:
        return true;
    }
    return true;
  };

  switch (f.kind) {
    case fault::FaultKind::SeuFlip:
    case fault::FaultKind::DelayStale:
      return f.cell == kNoCell || f.cell >= cone.cell.size() ||
             cone.cellAffected(f.cell);
    case fault::FaultKind::StuckAt0:
    case fault::FaultKind::StuckAt1:
    case fault::FaultKind::SetPulse:
      if (f.cell != kNoCell && f.cell < cone.cell.size()) {
        return cone.cellAffected(f.cell);
      }
      return netAffected(f.net);
    case fault::FaultKind::BridgeAnd:
    case fault::FaultKind::BridgeOr:
      return netAffected(f.net) || netAffected(f.net2);
    case fault::FaultKind::MemStuckBit:
    case fault::FaultKind::MemAddrNone:
    case fault::FaultKind::MemAddrWrong:
    case fault::FaultKind::MemAddrMulti:
    case fault::FaultKind::MemCoupling:
    case fault::FaultKind::MemSoftError:
      return f.mem >= cone.mem.size() || cone.memAffected(f.mem);
    case fault::FaultKind::MultiSeu: {
      if (f.cells.empty()) return true;  // conservative
      for (const CellId c : f.cells) {
        if (c == kNoCell || c >= cone.cell.size() || cone.cellAffected(c)) {
          return true;
        }
      }
      return false;
    }
  }
  return true;
}

}  // namespace socfmea::netlist
