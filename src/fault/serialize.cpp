#include "fault/serialize.hpp"

namespace socfmea::fault {

std::string netRef(const netlist::Netlist& nl, netlist::NetId id) {
  if (id == netlist::kNoNet) return "-";
  const netlist::Net& net = nl.net(id);
  if (!net.name.empty()) return net.name;
  if (net.driver != netlist::kNoCell) return "@c:" + nl.cell(net.driver).name;
  if (net.memDriver != netlist::kNoMemory) {
    const netlist::MemoryInst& mem = nl.memory(net.memDriver);
    for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
      if (mem.rdata[b] == id) {
        return "@m:" + mem.name + ":" + std::to_string(b);
      }
    }
  }
  return "@u:" + std::to_string(id);
}

std::string faultKey(const netlist::Netlist& nl, const Fault& f) {
  std::string key(faultKindName(f.kind));
  const auto add = [&key](const std::string& part) {
    key += '/';
    key += part;
  };
  switch (f.kind) {
    case FaultKind::SeuFlip:
    case FaultKind::DelayStale:
      add(f.cell != netlist::kNoCell ? nl.cell(f.cell).name : "-");
      break;
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::SetPulse:
      add(f.cell != netlist::kNoCell ? "@c:" + nl.cell(f.cell).name
                                     : netRef(nl, f.net));
      break;
    case FaultKind::BridgeAnd:
    case FaultKind::BridgeOr:
      add(netRef(nl, f.net));
      add(netRef(nl, f.net2));
      break;
    case FaultKind::MemStuckBit:
    case FaultKind::MemAddrNone:
    case FaultKind::MemAddrWrong:
    case FaultKind::MemAddrMulti:
    case FaultKind::MemCoupling:
    case FaultKind::MemSoftError:
      add(f.mem < nl.memoryCount() ? nl.memory(f.mem).name : "-");
      break;
    case FaultKind::MultiSeu: {
      // Name-based so the key survives cell renumbering, exactly like the
      // single-cell kinds above; '+'-joined in the fault's (sorted) cell
      // order.
      std::string joined;
      for (const netlist::CellId c : f.cells) {
        if (!joined.empty()) joined += '+';
        joined += c != netlist::kNoCell ? nl.cell(c).name : "-";
      }
      add(joined.empty() ? "-" : joined);
      break;
    }
  }
  key += "/a" + std::to_string(f.addr);
  key += "/a2" + std::to_string(f.addr2);
  key += "/b" + std::to_string(f.bit);
  key += f.stuckValue ? "/v1" : "/v0";
  key += "/t" + std::to_string(f.cycle);
  return key;
}

}  // namespace socfmea::fault
