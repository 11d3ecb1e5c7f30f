#include "testkit/netlist_gen.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace socfmea::testkit {

using netlist::CellId;
using netlist::CellType;
using netlist::kNoNet;
using netlist::MemoryInst;
using netlist::Netlist;
using netlist::NetId;

GeneratorOptions randomOptions(sim::Rng& rng) {
  GeneratorOptions o;
  o.inputs = static_cast<std::size_t>(rng.range(2, 8));
  o.gates = static_cast<std::size_t>(rng.range(8, 60));
  o.flipFlops = static_cast<std::size_t>(rng.range(0, 8));
  o.memories = rng.chance(0.25) ? 1 : 0;
  o.memAddrBits = static_cast<std::uint32_t>(rng.range(2, 4));
  o.memDataBits = static_cast<std::uint32_t>(rng.range(2, 6));
  o.maxFanin = static_cast<std::size_t>(rng.range(2, 5));
  o.constProb = rng.chance(0.5) ? 0.0 : 0.08;
  o.ffEnableProb = rng.uniform() * 0.6;
  o.ffResetProb = rng.uniform() * 0.6;
  o.outputs = static_cast<std::size_t>(rng.range(1, 4));
  return o;
}

namespace {

/// Weighted draw of a combinational cell type.
CellType drawGateType(const GeneratorOptions& opt, sim::Rng& rng) {
  if (opt.constProb > 0.0 && rng.chance(opt.constProb)) {
    return rng.coin() ? CellType::Const0 : CellType::Const1;
  }
  // Inverting and multi-input gates dominate, like mapped logic would.
  static constexpr CellType kTypes[] = {
      CellType::And,  CellType::Or,  CellType::Nand, CellType::Nor,
      CellType::Xor,  CellType::Xnor, CellType::Mux2, CellType::Not,
      CellType::Buf};
  static constexpr std::uint64_t kWeights[] = {4, 4, 4, 4, 3, 3, 3, 2, 1};
  std::uint64_t total = 0;
  for (std::uint64_t w : kWeights) total += w;
  std::uint64_t pick = rng.below(total);
  for (std::size_t i = 0; i < std::size(kTypes); ++i) {
    if (pick < kWeights[i]) return kTypes[i];
    pick -= kWeights[i];
  }
  return CellType::Buf;
}

}  // namespace

Netlist generateNetlist(const GeneratorOptions& opt, sim::Rng& rng) {
  Netlist nl("fuzz");
  std::vector<NetId> pool;  // nets a new gate may read

  const std::size_t nInputs = std::max<std::size_t>(1, opt.inputs);
  for (std::size_t i = 0; i < nInputs; ++i) {
    pool.push_back(nl.addInput("in" + std::to_string(i)));
  }

  // Flip-flop Q nets exist up front so combinational logic can close
  // register feedback loops; the Dff drivers are attached at the end.
  std::vector<NetId> qNets;
  for (std::size_t i = 0; i < opt.flipFlops; ++i) {
    const NetId q = nl.addNet("q" + std::to_string(i));
    qNets.push_back(q);
    pool.push_back(q);
  }

  const auto pickNet = [&] { return pool[rng.below(pool.size())]; };

  std::size_t gateNo = 0;
  const auto addGate = [&] {
    const CellType t = drawGateType(opt, rng);
    std::vector<NetId> ins;
    switch (t) {
      case CellType::Const0:
      case CellType::Const1:
        break;
      case CellType::Buf:
      case CellType::Not:
        ins.push_back(pickNet());
        break;
      case CellType::Mux2:
        ins = {pickNet(), pickNet(), pickNet()};
        break;
      default: {
        const auto n = static_cast<std::size_t>(
            rng.range(2, std::max<std::uint64_t>(2, opt.maxFanin)));
        for (std::size_t i = 0; i < n; ++i) ins.push_back(pickNet());
        break;
      }
    }
    const NetId out = nl.addNet("w" + std::to_string(gateNo));
    nl.addCell(t, "g" + std::to_string(gateNo), std::move(ins), out);
    ++gateNo;
    pool.push_back(out);
  };

  const std::size_t nGates = std::max<std::size_t>(1, opt.gates);
  // Most of the cloud first, so the memory's address/data cones have depth;
  // the remainder after the memory so its read data feeds logic too.
  const std::size_t before = opt.memories > 0 ? (nGates * 2) / 3 : nGates;
  for (std::size_t i = 0; i < before; ++i) addGate();

  for (std::size_t m = 0; m < std::min<std::size_t>(opt.memories, 1); ++m) {
    MemoryInst mem;
    mem.name = "mem" + std::to_string(m);
    mem.addrBits = opt.memAddrBits;
    mem.dataBits = opt.memDataBits;
    for (std::uint32_t i = 0; i < mem.addrBits; ++i) {
      mem.addr.push_back(pickNet());
    }
    for (std::uint32_t i = 0; i < mem.dataBits; ++i) {
      mem.wdata.push_back(pickNet());
    }
    for (std::uint32_t i = 0; i < mem.dataBits; ++i) {
      mem.rdata.push_back(nl.addNet("mr" + std::to_string(i)));
    }
    mem.writeEnable = pickNet();
    mem.readEnable = rng.coin() ? pickNet() : kNoNet;
    nl.addMemory(mem);
    for (NetId r : mem.rdata) pool.push_back(r);
  }
  for (std::size_t i = before; i < nGates; ++i) addGate();

  for (std::size_t i = 0; i < opt.flipFlops; ++i) {
    const NetId d = pickNet();
    const NetId en = rng.chance(opt.ffEnableProb) ? pickNet() : kNoNet;
    const NetId rst = rng.chance(opt.ffResetProb) ? pickNet() : kNoNet;
    nl.addDff("ff" + std::to_string(i), d, qNets[i], en, rst, rng.coin());
  }

  std::size_t outNo = 0;
  for (std::size_t i = 0; i < opt.outputs; ++i) {
    nl.addOutput("out" + std::to_string(outNo++), pickNet());
  }
  // Every unread net gets an observer port so no logic is dead — the
  // differential oracle compares primary outputs, and an unobservable cone
  // would hide engine disagreements.
  std::vector<bool> read(nl.netCount(), false);
  for (CellId c = 0; c < nl.cellCount(); ++c) {
    for (NetId in : nl.cell(c).inputs) {
      if (in != kNoNet) read[in] = true;
    }
  }
  for (const auto& mem : nl.memories()) {
    for (NetId n : mem.addr) read[n] = true;
    for (NetId n : mem.wdata) read[n] = true;
    if (mem.writeEnable != kNoNet) read[mem.writeEnable] = true;
    if (mem.readEnable != kNoNet) read[mem.readEnable] = true;
  }
  for (NetId n = 0; n < nl.netCount(); ++n) {
    if (!read[n]) nl.addOutput("sink" + std::to_string(outNo++), n);
  }

  nl.check();
  return nl;
}

}  // namespace socfmea::testkit
