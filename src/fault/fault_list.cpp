#include "fault/fault_list.hpp"

#include <algorithm>

namespace socfmea::fault {

using netlist::Cell;
using netlist::CellId;
using netlist::CellType;
using netlist::kNoNet;
using netlist::Netlist;

FaultList allStuckAtFaults(const Netlist& nl) {
  FaultList out;
  for (CellId id = 0; id < nl.cellCount(); ++id) {
    const Cell& c = nl.cell(id);
    const bool site = isCombinational(c.type) || c.type == CellType::Dff ||
                      c.type == CellType::Input;
    if (!site || c.output == kNoNet) continue;
    // Constant cells only admit the opposite-polarity fault.
    if (c.type != CellType::Const0) {
      Fault f;
      f.kind = FaultKind::StuckAt0;
      f.net = c.output;
      f.cell = id;
      out.push_back(f);
    }
    if (c.type != CellType::Const1) {
      Fault f;
      f.kind = FaultKind::StuckAt1;
      f.net = c.output;
      f.cell = id;
      out.push_back(f);
    }
  }
  return out;
}

FaultList allSeuFaults(const Netlist& nl) {
  FaultList out;
  for (CellId id : nl.flipFlops()) {
    Fault f;
    f.kind = FaultKind::SeuFlip;
    f.cell = id;
    f.net = nl.cell(id).output;
    out.push_back(f);
  }
  return out;
}

FaultList allSetFaults(const Netlist& nl) {
  FaultList out;
  for (CellId id = 0; id < nl.cellCount(); ++id) {
    const Cell& c = nl.cell(id);
    if (!isCombinational(c.type) || c.type == CellType::Const0 ||
        c.type == CellType::Const1) {
      continue;
    }
    Fault f;
    f.kind = FaultKind::SetPulse;
    f.net = c.output;
    f.cell = id;
    out.push_back(f);
  }
  return out;
}

FaultList allDelayFaults(const Netlist& nl) {
  FaultList out;
  for (CellId id : nl.flipFlops()) {
    Fault f;
    f.kind = FaultKind::DelayStale;
    f.cell = id;
    f.net = nl.cell(id).output;
    out.push_back(f);
  }
  return out;
}

FaultList bridgingFaults(const Netlist& nl, std::size_t maxPairs,
                         sim::Rng& rng) {
  // Candidate pairs: two distinct input nets of the same cell.
  std::vector<std::pair<netlist::NetId, netlist::NetId>> pairs;
  for (const Cell& c : nl.cells()) {
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      for (std::size_t j = i + 1; j < c.inputs.size(); ++j) {
        const netlist::NetId a = c.inputs[i];
        const netlist::NetId b = c.inputs[j];
        if (a == kNoNet || b == kNoNet || a == b) continue;
        pairs.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  // Sample without replacement.
  FaultList out;
  while (!pairs.empty() && out.size() < maxPairs * 2) {
    const std::size_t pick = rng.below(pairs.size());
    const auto [a, b] = pairs[pick];
    pairs[pick] = pairs.back();
    pairs.pop_back();
    Fault fAnd;
    fAnd.kind = FaultKind::BridgeAnd;
    fAnd.net = a;
    fAnd.net2 = b;
    out.push_back(fAnd);
    Fault fOr;
    fOr.kind = FaultKind::BridgeOr;
    fOr.net = a;
    fOr.net2 = b;
    out.push_back(fOr);
  }
  return out;
}

FaultList memoryFaults(const Netlist& nl, netlist::MemoryId mem,
                       std::size_t perKind, sim::Rng& rng) {
  const auto& m = nl.memory(mem);
  const std::uint64_t words = std::uint64_t{1} << m.addrBits;
  FaultList out;
  const auto randAddr = [&] { return rng.below(words); };
  const auto randBit = [&] {
    return static_cast<std::uint32_t>(rng.below(m.dataBits));
  };
  for (std::size_t i = 0; i < perKind; ++i) {
    {
      Fault f;
      f.kind = FaultKind::MemStuckBit;
      f.mem = mem;
      f.addr = randAddr();
      f.bit = randBit();
      f.stuckValue = rng.coin();
      out.push_back(f);
    }
    {
      Fault f;
      f.kind = FaultKind::MemAddrNone;
      f.mem = mem;
      f.addr = randAddr();
      out.push_back(f);
    }
    if (words > 1) {
      Fault f;
      f.kind = FaultKind::MemAddrWrong;
      f.mem = mem;
      f.addr = randAddr();
      do {
        f.addr2 = randAddr();
      } while (f.addr2 == f.addr);
      out.push_back(f);

      Fault g;
      g.kind = FaultKind::MemAddrMulti;
      g.mem = mem;
      g.addr = randAddr();
      do {
        g.addr2 = randAddr();
      } while (g.addr2 == g.addr);
      out.push_back(g);

      Fault h;
      h.kind = FaultKind::MemCoupling;
      h.mem = mem;
      h.addr = randAddr();
      do {
        h.addr2 = randAddr();
      } while (h.addr2 == h.addr);
      h.bit = randBit();
      out.push_back(h);
    }
    {
      Fault f;
      f.kind = FaultKind::MemSoftError;
      f.mem = mem;
      f.addr = randAddr();
      f.bit = randBit();
      out.push_back(f);
    }
  }
  return out;
}

void append(FaultList& a, const FaultList& b) {
  a.insert(a.end(), b.begin(), b.end());
}

}  // namespace socfmea::fault
