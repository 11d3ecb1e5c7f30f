#include "netlist/traversal.hpp"

#include <algorithm>

namespace socfmea::netlist {

namespace {

void sortUnique(std::vector<CellId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// The one shared forward walker (see ForwardReach in the header).  Marks
// reached nets / cells / memories in `reach`; `throughRegisters` crosses
// flip-flops via their Q net (multi-cycle closure), `throughMemories`
// crosses behavioural memories via their write-side pins (a corrupted write
// resurfaces on the read port).  A boundary cell (flip-flop with
// `throughRegisters` false) is still marked reached — it just isn't crossed.
// When `order` is non-null, newly reached cells are appended in discovery
// order.
void walkForward(const CompiledDesign& cd, ForwardReach& reach,
                 const std::vector<NetId>& seeds, bool throughRegisters,
                 bool throughMemories, std::vector<CellId>* order) {
  const Netlist& nl = cd.design();
  std::vector<NetId> stack;
  const auto pushNet = [&](NetId n) {
    if (n != kNoNet && reach.net[n] == 0) {
      reach.net[n] = 1;
      stack.push_back(n);
    }
  };
  for (const NetId n : seeds) pushNet(n);

  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    for (const CellId c : cd.fanout(n)) {
      if (reach.cell[c] != 0) continue;
      reach.cell[c] = 1;
      if (order != nullptr) order->push_back(c);
      const CellType t = cd.cellType(c);
      if (isCombinational(t) || (t == CellType::Dff && throughRegisters)) {
        pushNet(cd.cellOutput(c));
      }
    }
    if (!throughMemories) continue;
    for (const MemoryId m : cd.memWriteSinks(n)) {
      if (reach.mem[m] != 0) continue;
      reach.mem[m] = 1;
      for (const NetId r : nl.memory(m).rdata) pushNet(r);
    }
  }
}

ForwardReach emptyReach(const CompiledDesign& cd) {
  ForwardReach reach;
  reach.net.assign(cd.netCount(), 0);
  reach.cell.assign(cd.cellCount(), 0);
  reach.mem.assign(cd.design().memoryCount(), 0);
  return reach;
}

}  // namespace

Cone faninCone(const CompiledDesign& cd, const std::vector<NetId>& roots) {
  Cone cone;
  std::vector<bool> netSeen(cd.netCount(), false);
  std::vector<NetId> stack;
  for (NetId r : roots) {
    if (r == kNoNet || netSeen[r]) continue;
    netSeen[r] = true;
    stack.push_back(r);
  }
  std::vector<bool> memSeen(cd.design().memoryCount(), false);

  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    cone.nets.push_back(n);
    const NetSource& src = cd.netSource(n);
    switch (src.kind) {
      case NetSourceKind::Memory:
        if (!memSeen[src.id]) {
          memSeen[src.id] = true;
          cone.supportMems.push_back(src.id);
        }
        continue;
      case NetSourceKind::Input:
        cone.supportPis.push_back(src.id);
        continue;
      case NetSourceKind::Ff:
        cone.supportFfs.push_back(src.id);
        continue;
      case NetSourceKind::None:
        continue;
      case NetSourceKind::Comb:
        break;
    }
    cone.gates.push_back(src.id);
    for (NetId in : cd.fanin(src.id)) {
      if (netSeen[in]) continue;
      netSeen[in] = true;
      stack.push_back(in);
    }
  }
  sortUnique(cone.gates);
  sortUnique(cone.supportFfs);
  sortUnique(cone.supportPis);
  std::sort(cone.nets.begin(), cone.nets.end());
  return cone;
}

std::vector<CellId> forwardReach(const Netlist& nl,
                                 const std::vector<NetId>& srcNets,
                                 bool throughRegisters, bool throughMemories) {
  std::vector<bool> netSeen(nl.netCount(), false);
  std::vector<bool> cellSeen(nl.cellCount(), false);
  std::vector<NetId> stack;
  const auto push = [&](NetId n) {
    if (n == kNoNet || netSeen[n]) return;
    netSeen[n] = true;
    stack.push_back(n);
  };
  for (NetId s : srcNets) push(s);

  // Net -> memories whose write-side pins it feeds.
  std::vector<std::vector<MemoryId>> memSinks;
  if (throughMemories && nl.memoryCount() != 0) {
    memSinks.assign(nl.netCount(), {});
    for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
      const MemoryInst& mem = nl.memory(m);
      for (NetId n : mem.addr) memSinks[n].push_back(m);
      for (NetId n : mem.wdata) memSinks[n].push_back(m);
      memSinks[mem.writeEnable].push_back(m);
      if (mem.readEnable != kNoNet) memSinks[mem.readEnable].push_back(m);
    }
  }

  std::vector<CellId> reached;
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    if (!memSinks.empty()) {
      for (MemoryId m : memSinks[n]) {
        for (NetId r : nl.memory(m).rdata) push(r);
      }
    }
    for (CellId sink : nl.net(n).fanout) {
      if (cellSeen[sink]) continue;
      cellSeen[sink] = true;
      reached.push_back(sink);
      const Cell& c = nl.cell(sink);
      NetId out = kNoNet;
      if (isCombinational(c.type)) {
        out = c.output;
      } else if (c.type == CellType::Dff && throughRegisters) {
        out = c.output;
      }
      if (out != kNoNet && !netSeen[out]) {
        netSeen[out] = true;
        stack.push_back(out);
      }
    }
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

std::vector<CellId> forwardReach(const CompiledDesign& cd,
                                 const std::vector<NetId>& srcNets,
                                 bool throughRegisters, bool throughMemories) {
  ForwardReach reach = emptyReach(cd);
  std::vector<CellId> reached;
  walkForward(cd, reach, srcNets, throughRegisters, throughMemories, &reached);
  std::sort(reached.begin(), reached.end());
  return reached;
}

ForwardReach forwardReach(const CompiledDesign& cd,
                          const std::vector<NetId>& seeds) {
  ForwardReach reach = emptyReach(cd);
  extendForwardReach(cd, reach, seeds);
  return reach;
}

void extendForwardReach(const CompiledDesign& cd, ForwardReach& reach,
                        const std::vector<NetId>& seeds) {
  walkForward(cd, reach, seeds, /*throughRegisters=*/true,
              /*throughMemories=*/true, nullptr);
}

}  // namespace socfmea::netlist
