#include "testkit/plan.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace socfmea::testkit {

using fault::Fault;
using fault::FaultKind;
using netlist::CellId;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::MemoryId;
using netlist::Netlist;
using netlist::NetId;

PlanOptions randomPlanOptions(sim::Rng& rng) {
  PlanOptions o;
  o.cycles = rng.range(12, 48);
  o.stuckAt = static_cast<std::size_t>(rng.range(2, 8));
  o.transients = static_cast<std::size_t>(rng.range(2, 8));
  o.bridges = static_cast<std::size_t>(rng.range(0, 3));
  o.delays = static_cast<std::size_t>(rng.range(0, 2));
  o.memFaults = static_cast<std::size_t>(rng.range(1, 4));
  return o;
}

TestPlan generatePlan(const Netlist& nl, const PlanOptions& opt,
                      sim::Rng& rng) {
  TestPlan plan;
  const std::uint64_t cycles = std::max<std::uint64_t>(1, opt.cycles);
  plan.stim = faultsim::StimulusTrace(nl, cycles);
  for (auto& row : plan.stim.values) {
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = rng.coin();
  }

  const auto anyNet = [&] {
    return static_cast<NetId>(rng.below(nl.netCount()));
  };
  const auto ffs = nl.flipFlops();

  for (std::size_t i = 0; i < opt.stuckAt; ++i) {
    Fault f;
    f.kind = rng.coin() ? FaultKind::StuckAt1 : FaultKind::StuckAt0;
    f.net = anyNet();
    plan.faults.push_back(f);
  }
  for (std::size_t i = 0; i < opt.transients; ++i) {
    Fault f;
    if (!ffs.empty() && rng.coin()) {
      f.kind = FaultKind::SeuFlip;
      f.cell = ffs[rng.below(ffs.size())];
      f.net = nl.cell(f.cell).output;
    } else {
      f.kind = FaultKind::SetPulse;
      f.net = anyNet();
    }
    f.cycle = rng.below(cycles);
    plan.faults.push_back(f);
  }
  if (nl.netCount() >= 2) {
    for (std::size_t i = 0; i < opt.bridges; ++i) {
      Fault f;
      f.kind = rng.coin() ? FaultKind::BridgeAnd : FaultKind::BridgeOr;
      f.net = anyNet();
      do {
        f.net2 = anyNet();
      } while (f.net2 == f.net);
      plan.faults.push_back(f);
    }
  }
  if (!ffs.empty()) {
    for (std::size_t i = 0; i < opt.delays; ++i) {
      Fault f;
      f.kind = FaultKind::DelayStale;
      f.cell = ffs[rng.below(ffs.size())];
      f.net = nl.cell(f.cell).output;
      plan.faults.push_back(f);
    }
  }
  if (nl.memoryCount() > 0) {
    for (std::size_t i = 0; i < opt.memFaults; ++i) {
      const auto mem = static_cast<MemoryId>(rng.below(nl.memoryCount()));
      const auto& inst = nl.memory(mem);
      Fault f;
      f.mem = mem;
      f.addr = rng.below(std::uint64_t{1} << inst.addrBits);
      f.bit = static_cast<std::uint32_t>(rng.below(inst.dataBits));
      if (rng.coin()) {
        f.kind = FaultKind::MemStuckBit;
        f.stuckValue = rng.coin();
      } else {
        f.kind = FaultKind::MemSoftError;
        f.cycle = rng.below(cycles);
      }
      plan.faults.push_back(f);
    }
  }
  return plan;
}

namespace {

std::string_view planNetName(const Netlist& nl, NetId id) {
  const auto& name = nl.net(id).name;
  if (name.empty()) {
    throw PlanError("plan references unnamed net #" + std::to_string(id) +
                    "; write the design through the .snl format first");
  }
  return name;
}

FaultKind kindFromName(const std::string& name, std::size_t line) {
  for (int k = 0; k <= static_cast<int>(FaultKind::MultiSeu); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (fault::faultKindName(kind) == name) return kind;
  }
  throw PlanError("line " + std::to_string(line) + ": unknown fault kind '" +
                  name + "'");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream ss(line);
  std::string t;
  while (ss >> t) {
    if (t.front() == '#') break;
    toks.push_back(t);
  }
  return toks;
}

NetId bindNet(const Netlist& nl, const std::string& name, std::size_t line) {
  if (const auto id = nl.findNet(name)) return *id;
  throw PlanError("line " + std::to_string(line) + ": unknown net '" + name +
                  "'");
}

CellId bindCell(const Netlist& nl, const std::string& name, std::size_t line) {
  if (const auto id = nl.findCell(name)) return *id;
  throw PlanError("line " + std::to_string(line) + ": unknown cell '" + name +
                  "'");
}

MemoryId bindMemory(const Netlist& nl, const std::string& name,
                    std::size_t line) {
  for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
    if (nl.memory(m).name == name) return m;
  }
  throw PlanError("line " + std::to_string(line) + ": unknown memory '" +
                  name + "'");
}

/// An unsigned integer (decimal, or 0x / 0 prefixed) of at most `max`.
/// std::stoull alone would wrap a leading '-' and stop at the first
/// non-digit, so both are rejected here.
std::uint64_t bindInt(const std::string& v, std::size_t line,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) {
  std::size_t end = 0;
  std::uint64_t n = 0;
  try {
    if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0])) != 0) {
      n = std::stoull(v, &end, 0);
    }
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != v.size() || n > max) {
    throw PlanError("line " + std::to_string(line) + ": bad number '" + v +
                    "'");
  }
  return n;
}

/// Rejects a fault the engines cannot run: a missing site, an SEU, delay or
/// multi-SEU cell that is not a flip-flop, and a memory address or bit
/// outside the memory.
void checkFault(const Netlist& nl, const Fault& f, bool namesMemory,
                std::size_t line) {
  const auto fail = [&](const std::string& what) {
    throw PlanError("line " + std::to_string(line) + ": " +
                    std::string(fault::faultKindName(f.kind)) + " fault " +
                    what);
  };
  const auto isFf = [&](CellId c) {
    return c != kNoCell && nl.cell(c).type == netlist::CellType::Dff;
  };
  switch (f.kind) {
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::SetPulse:
      if (f.net == kNoNet) fail("needs net=");
      return;
    case FaultKind::BridgeAnd:
    case FaultKind::BridgeOr:
      if (f.net == kNoNet || f.net2 == kNoNet) fail("needs net= and net2=");
      return;
    case FaultKind::SeuFlip:
    case FaultKind::DelayStale:
      if (!isFf(f.cell)) fail("needs a flip-flop cell=");
      return;
    case FaultKind::MultiSeu:
      if (f.cells.empty() ||
          !std::all_of(f.cells.begin(), f.cells.end(), isFf)) {
        fail("needs flip-flop cells=");
      }
      return;
    default:
      break;
  }
  if (!namesMemory) fail("needs mem=");
  const netlist::MemoryInst& m = nl.memory(f.mem);
  const auto inside = [&](std::uint64_t addr) {
    return m.addrBits >= 64 || (addr >> m.addrBits) == 0;
  };
  if (!inside(f.addr) || !inside(f.addr2)) {
    fail("address outside memory '" + m.name + "' (" +
         std::to_string(m.addrBits) + " address bits)");
  }
  if (f.bit >= m.dataBits) {
    fail("bit outside memory '" + m.name + "' (" +
         std::to_string(m.dataBits) + " data bits)");
  }
}

}  // namespace

void writePlan(std::ostream& out, const Netlist& nl, const TestPlan& plan) {
  out << "plan " << plan.name << "\n";
  out << "inputs";
  for (NetId in : plan.stim.inputs) out << " " << planNetName(nl, in);
  out << "\n";
  for (const auto& row : plan.stim.values) {
    out << "stim ";
    for (bool b : row) out << (b ? '1' : '0');
    out << "\n";
  }
  for (const Fault& f : plan.faults) {
    out << "fault " << fault::faultKindName(f.kind);
    if (f.net != kNoNet) out << " net=" << planNetName(nl, f.net);
    if (f.net2 != kNoNet) out << " net2=" << planNetName(nl, f.net2);
    switch (f.kind) {
      case FaultKind::SeuFlip:
      case FaultKind::DelayStale:
        out << " cell=" << nl.cell(f.cell).name;
        break;
      case FaultKind::MemStuckBit:
        out << " mem=" << nl.memory(f.mem).name << " addr=" << f.addr
            << " bit=" << f.bit << " value=" << (f.stuckValue ? 1 : 0);
        break;
      case FaultKind::MemSoftError:
        out << " mem=" << nl.memory(f.mem).name << " addr=" << f.addr
            << " bit=" << f.bit;
        break;
      case FaultKind::MemAddrNone:
        out << " mem=" << nl.memory(f.mem).name << " addr=" << f.addr;
        break;
      case FaultKind::MemAddrWrong:
      case FaultKind::MemAddrMulti:
        out << " mem=" << nl.memory(f.mem).name << " addr=" << f.addr
            << " addr2=" << f.addr2;
        break;
      case FaultKind::MemCoupling:
        out << " mem=" << nl.memory(f.mem).name << " addr=" << f.addr
            << " addr2=" << f.addr2 << " bit=" << f.bit;
        break;
      case FaultKind::MultiSeu: {
        out << " cells=";
        for (std::size_t i = 0; i < f.cells.size(); ++i) {
          if (i != 0) out << ',';
          out << nl.cell(f.cells[i]).name;
        }
        break;
      }
      default:
        break;
    }
    if (f.transient()) out << " cycle=" << f.cycle;
    out << "\n";
  }
}

std::string writePlanString(const Netlist& nl, const TestPlan& plan) {
  std::ostringstream ss;
  writePlan(ss, nl, plan);
  return ss.str();
}

TestPlan readPlan(std::istream& in, const Netlist& nl) {
  TestPlan plan;
  std::string line;
  std::size_t lineNo = 0;
  bool sawInputs = false;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    if (kw == "plan") {
      if (toks.size() != 2) {
        throw PlanError("line " + std::to_string(lineNo) +
                        ": plan takes one name");
      }
      plan.name = toks[1];
    } else if (kw == "inputs") {
      if (!plan.stim.values.empty() &&
          plan.stim.values.front().size() != toks.size() - 1) {
        throw PlanError("line " + std::to_string(lineNo) +
                        ": inputs changes the width of earlier stim lines");
      }
      plan.stim.inputs.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const NetId in = bindNet(nl, toks[i], lineNo);
        const CellId driver = nl.net(in).driver;
        if (driver == kNoCell ||
            nl.cell(driver).type != netlist::CellType::Input) {
          throw PlanError("line " + std::to_string(lineNo) + ": net '" +
                          toks[i] + "' is not a primary input");
        }
        plan.stim.inputs.push_back(in);
      }
      sawInputs = true;
    } else if (kw == "stim") {
      if (!sawInputs) {
        throw PlanError("line " + std::to_string(lineNo) +
                        ": stim before inputs");
      }
      if (toks.size() != 2 || toks[1].size() != plan.stim.inputs.size()) {
        throw PlanError("line " + std::to_string(lineNo) + ": stim needs " +
                        std::to_string(plan.stim.inputs.size()) + " bits");
      }
      std::vector<bool> row;
      for (char c : toks[1]) {
        if (c != '0' && c != '1') {
          throw PlanError("line " + std::to_string(lineNo) +
                          ": stim bits must be 0/1");
        }
        row.push_back(c == '1');
      }
      plan.stim.values.push_back(std::move(row));
    } else if (kw == "fault") {
      if (toks.size() < 2) {
        throw PlanError("line " + std::to_string(lineNo) +
                        ": fault takes a kind");
      }
      Fault f;
      f.kind = kindFromName(toks[1], lineNo);
      bool namesMemory = false;
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto eq = toks[i].find('=');
        if (eq == std::string::npos) {
          throw PlanError("line " + std::to_string(lineNo) +
                          ": expected key=value, got '" + toks[i] + "'");
        }
        const std::string k = toks[i].substr(0, eq);
        const std::string v = toks[i].substr(eq + 1);
        if (k == "net") {
          f.net = bindNet(nl, v, lineNo);
        } else if (k == "net2") {
          f.net2 = bindNet(nl, v, lineNo);
        } else if (k == "cell") {
          f.cell = bindCell(nl, v, lineNo);
        } else if (k == "mem") {
          f.mem = bindMemory(nl, v, lineNo);
          namesMemory = true;
        } else if (k == "addr") {
          f.addr = bindInt(v, lineNo);
        } else if (k == "addr2") {
          f.addr2 = bindInt(v, lineNo);
        } else if (k == "bit") {
          f.bit = static_cast<std::uint32_t>(
              bindInt(v, lineNo, std::numeric_limits<std::uint32_t>::max()));
        } else if (k == "value") {
          f.stuckValue = bindInt(v, lineNo) != 0;
        } else if (k == "cycle") {
          f.cycle = bindInt(v, lineNo);
        } else if (k == "cells") {
          std::size_t pos = 0;
          while (pos <= v.size()) {
            const std::size_t comma = v.find(',', pos);
            const std::string name =
                v.substr(pos, comma == std::string::npos ? std::string::npos
                                                         : comma - pos);
            if (!name.empty()) f.cells.push_back(bindCell(nl, name, lineNo));
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
        } else {
          throw PlanError("line " + std::to_string(lineNo) +
                          ": unknown fault attribute '" + k + "'");
        }
      }
      checkFault(nl, f, namesMemory, lineNo);
      plan.faults.push_back(f);
    } else {
      throw PlanError("line " + std::to_string(lineNo) +
                      ": unknown statement '" + kw + "'");
    }
  }
  return plan;
}

TestPlan readPlanString(const std::string& text, const Netlist& nl) {
  std::istringstream ss(text);
  return readPlan(ss, nl);
}

TestPlan rebindPlan(const Netlist& from, const Netlist& to,
                    const TestPlan& plan) {
  const auto mapNet = [&](NetId id) -> NetId {
    if (id == kNoNet) return kNoNet;
    const auto name = planNetName(from, id);
    if (const auto mapped = to.findNet(name)) return *mapped;
    throw PlanError("rebind: net '" + std::string(name) +
                    "' missing from design '" + to.name() + "'");
  };
  TestPlan out = plan;
  for (auto& in : out.stim.inputs) in = mapNet(in);
  for (auto& f : out.faults) {
    f.net = mapNet(f.net);
    f.net2 = mapNet(f.net2);
    if (f.cell != kNoCell) {
      const auto& name = from.cell(f.cell).name;
      const auto mapped = to.findCell(name);
      if (!mapped) {
        throw PlanError("rebind: cell '" + name + "' missing from design '" +
                        to.name() + "'");
      }
      f.cell = *mapped;
    }
    switch (f.kind) {
      case FaultKind::MemStuckBit:
      case FaultKind::MemAddrNone:
      case FaultKind::MemAddrWrong:
      case FaultKind::MemAddrMulti:
      case FaultKind::MemCoupling:
      case FaultKind::MemSoftError: {
        const auto& name = from.memory(f.mem).name;
        bool found = false;
        for (MemoryId m = 0; m < to.memoryCount(); ++m) {
          if (to.memory(m).name == name) {
            f.mem = m;
            found = true;
            break;
          }
        }
        if (!found) {
          throw PlanError("rebind: memory '" + name +
                          "' missing from design '" + to.name() + "'");
        }
        break;
      }
      case FaultKind::MultiSeu:
        for (auto& c : f.cells) {
          const auto& name = from.cell(c).name;
          const auto mapped = to.findCell(name);
          if (!mapped) {
            throw PlanError("rebind: cell '" + name +
                            "' missing from design '" + to.name() + "'");
          }
          c = *mapped;
        }
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace socfmea::testkit
