#include "testkit/shrink.hpp"

#include <algorithm>
#include <fstream>
#include <optional>

#include "netlist/text_format.hpp"

namespace socfmea::testkit {

using netlist::CellId;
using netlist::CellType;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::MemoryId;
using netlist::Netlist;
using netlist::NetId;

namespace {

/// Total oracle calls one shrink may spend.
constexpr std::size_t kMaxOracleCalls = 400;
/// Rounds of the structural passes (each stops early once nothing shrinks).
constexpr std::size_t kStructuralRounds = 3;

struct Candidate {
  Netlist nl;
  TestPlan plan;
};

/// Rebuilds `src` without the dropped cells, promoting the given nets to
/// primary inputs (driven 0 by the remapped plan).  Returns nullopt when the
/// result is not check()-clean or a fault site no longer exists.
std::optional<Candidate> rebuild(const Netlist& src, const TestPlan& plan,
                                 const std::vector<bool>& dropCell,
                                 const std::vector<bool>& promote) {
  try {
    Netlist nl(src.name());
    std::vector<NetId> netMap(src.netCount(), kNoNet);
    std::vector<CellId> cellMap(src.cellCount(), kNoCell);

    std::vector<NetId> promoted;  // old ids, in promotion order
    for (NetId n = 0; n < src.netCount(); ++n) {
      if (!promote[n]) continue;
      const std::string& name = src.net(n).name;
      netMap[n] = nl.addInput(name.empty() ? "pi" + std::to_string(n) : name);
      promoted.push_back(n);
    }
    // Memory read-data nets exist before any reader; addMemory() later
    // claims them as its driven ports.
    for (const auto& mem : src.memories()) {
      for (NetId r : mem.rdata) {
        if (netMap[r] == kNoNet) netMap[r] = nl.addNet(src.net(r).name);
      }
    }
    const auto mapNet = [&](NetId n) -> NetId {
      if (n == kNoNet) return kNoNet;
      if (netMap[n] == kNoNet) netMap[n] = nl.addNet(src.net(n).name);
      return netMap[n];
    };

    for (CellId c = 0; c < src.cellCount(); ++c) {
      if (dropCell[c]) continue;
      const auto& cell = src.cell(c);
      switch (cell.type) {
        case CellType::Input:
          netMap[cell.output] = nl.addInput(src.net(cell.output).name);
          cellMap[c] = static_cast<CellId>(nl.cellCount() - 1);
          break;
        case CellType::Output:
          cellMap[c] = nl.addOutput(cell.name, mapNet(cell.inputs[0]));
          break;
        case CellType::Dff:
          cellMap[c] = nl.addDff(cell.name, mapNet(cell.inputs[0]),
                                 mapNet(cell.output), mapNet(cell.inputs[1]),
                                 mapNet(cell.inputs[2]), cell.dffInit);
          break;
        default: {
          std::vector<NetId> ins;
          ins.reserve(cell.inputs.size());
          for (NetId in : cell.inputs) ins.push_back(mapNet(in));
          cellMap[c] = nl.addCell(cell.type, cell.name, std::move(ins),
                                  mapNet(cell.output));
          break;
        }
      }
    }
    for (const auto& mem : src.memories()) {
      netlist::MemoryInst inst = mem;
      for (auto& n : inst.addr) n = mapNet(n);
      for (auto& n : inst.wdata) n = mapNet(n);
      for (auto& n : inst.rdata) n = mapNet(n);
      inst.writeEnable = mapNet(inst.writeEnable);
      inst.readEnable = mapNet(inst.readEnable);
      nl.addMemory(std::move(inst));
    }
    nl.check();

    Candidate cand;
    cand.plan.name = plan.name;
    // Promoted inputs first (all-zero columns), then the surviving originals
    // with their stimulus.
    const std::vector<NetId>& oldInputs = plan.stim.inputs;
    std::vector<NetId>& inputs = cand.plan.stim.inputs;
    std::vector<std::size_t> columns;  // old column; >= old count = promoted
    for (NetId n : promoted) {
      inputs.push_back(netMap[n]);
      columns.push_back(oldInputs.size());
    }
    for (std::size_t i = 0; i < oldInputs.size(); ++i) {
      const NetId mapped = netMap[oldInputs[i]];
      if (mapped == kNoNet) continue;  // its Input cell was dropped
      if (nl.net(mapped).driver == kNoCell) return std::nullopt;
      inputs.push_back(mapped);
      columns.push_back(i);
    }
    if (inputs.size() != nl.primaryInputs().size()) {
      return std::nullopt;  // a promoted/original input lost its port
    }
    for (const std::vector<bool>& old : plan.stim.values) {
      std::vector<bool>& row = cand.plan.stim.values.emplace_back();
      for (const std::size_t col : columns) {
        row.push_back(col < oldInputs.size() && old[col]);
      }
    }
    for (const auto& f : plan.faults) {
      fault::Fault nf = f;
      if (f.net != kNoNet) {
        if (netMap[f.net] == kNoNet) return std::nullopt;
        nf.net = netMap[f.net];
      }
      if (f.net2 != kNoNet) {
        if (netMap[f.net2] == kNoNet) return std::nullopt;
        nf.net2 = netMap[f.net2];
      }
      if (f.cell != kNoCell) {
        if (cellMap[f.cell] == kNoCell) return std::nullopt;
        nf.cell = cellMap[f.cell];
      }
      cand.plan.faults.push_back(nf);
    }
    cand.nl = std::move(nl);
    return cand;
  } catch (const netlist::NetlistError&) {
    return std::nullopt;
  }
}

class Shrinker {
 public:
  Shrinker(const Netlist& nl, const TestPlan& plan, const ShrinkOptions& opt)
      : opt_(opt), cur_{nl, plan} {}

  ShrinkResult run() {
    ShrinkResult r;
    r.faultsBefore = cur_.plan.faults.size();
    r.cyclesBefore = cur_.plan.cycles();
    r.cellsBefore = cur_.nl.cellCount();
    r.reproduced = fails(cur_.nl, cur_.plan);
    if (r.reproduced) {
      shrinkFaults();
      shrinkCycles();
      zeroStimulus();
      for (std::size_t round = 0; round < kStructuralRounds; ++round) {
        const std::size_t before = cur_.nl.cellCount();
        pruneOutputs();
        sweepDeadCells();
        bypassCells();
        if (cur_.nl.cellCount() == before) break;
      }
      shrinkFaults();  // structure changes may have freed more faults
    }
    r.design = std::move(cur_.nl);
    r.plan = std::move(cur_.plan);
    r.oracleCalls = calls_;
    r.faultsAfter = r.plan.faults.size();
    r.cyclesAfter = r.plan.cycles();
    r.cellsAfter = r.design.cellCount();
    return r;
  }

 private:
  bool fails(const Netlist& nl, const TestPlan& plan) {
    if (calls_ >= kMaxOracleCalls) return false;
    ++calls_;
    try {
      return !runOracle(nl, plan, opt_.oracle).pass;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Accepts the candidate if the failure survives on it.
  bool accept(Candidate cand) {
    if (!fails(cand.nl, cand.plan)) return false;
    cur_ = std::move(cand);
    return true;
  }

  bool tryPlan(TestPlan plan) {
    if (!fails(cur_.nl, plan)) return false;
    cur_.plan = std::move(plan);
    return true;
  }

  void shrinkFaults() {
    std::size_t chunk = std::max<std::size_t>(1, cur_.plan.faults.size() / 2);
    while (true) {
      bool removed = false;
      for (std::size_t at = 0; at < cur_.plan.faults.size();) {
        TestPlan cand = cur_.plan;
        const auto end =
            std::min(at + chunk, cand.faults.size());
        cand.faults.erase(
            cand.faults.begin() + static_cast<std::ptrdiff_t>(at),
            cand.faults.begin() + static_cast<std::ptrdiff_t>(end));
        if (!cand.faults.empty() && tryPlan(std::move(cand))) {
          removed = true;  // keep `at`: the next chunk slid into place
        } else {
          at += chunk;
        }
      }
      if (chunk == 1 && !removed) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }

  void shrinkCycles() {
    // Shortest failing stimulus prefix, by halving then linear trim.
    while (cur_.plan.cycles() > 1) {
      TestPlan cand = cur_.plan;
      cand.stim.values.resize(
          std::max<std::size_t>(1, cand.stim.values.size() / 2));
      if (!tryPlan(std::move(cand))) break;
    }
    while (cur_.plan.cycles() > 1) {
      TestPlan cand = cur_.plan;
      cand.stim.values.pop_back();
      if (!tryPlan(std::move(cand))) break;
    }
  }

  void zeroStimulus() {
    for (std::size_t col = 0; col < cur_.plan.stim.inputs.size(); ++col) {
      TestPlan cand = cur_.plan;
      bool any = false;
      for (auto& row : cand.stim.values) {
        any = any || row[col];
        row[col] = false;
      }
      if (any) (void)tryPlan(std::move(cand));
    }
    for (std::size_t cyc = 0; cyc < cur_.plan.cycles(); ++cyc) {
      TestPlan cand = cur_.plan;
      auto& row = cand.stim.values[cyc];
      if (std::none_of(row.begin(), row.end(), [](bool b) { return b; })) {
        continue;
      }
      std::fill(row.begin(), row.end(), false);
      (void)tryPlan(std::move(cand));
    }
  }

  void pruneOutputs() {
    for (CellId c = 0; c < cur_.nl.cellCount(); ++c) {
      if (cur_.nl.cell(c).type != CellType::Output) continue;
      std::vector<bool> drop(cur_.nl.cellCount(), false);
      drop[c] = true;
      std::vector<bool> promote(cur_.nl.netCount(), false);
      if (auto cand = rebuild(cur_.nl, cur_.plan, drop, promote)) {
        if (accept(std::move(*cand))) --c;  // ids shifted; revisit this slot
      }
    }
  }

  void sweepDeadCells() {
    while (true) {
      std::vector<bool> read(cur_.nl.netCount(), false);
      for (CellId c = 0; c < cur_.nl.cellCount(); ++c) {
        for (NetId in : cur_.nl.cell(c).inputs) {
          if (in != kNoNet) read[in] = true;
        }
      }
      for (const auto& mem : cur_.nl.memories()) {
        for (NetId n : mem.addr) read[n] = true;
        for (NetId n : mem.wdata) read[n] = true;
        if (mem.writeEnable != kNoNet) read[mem.writeEnable] = true;
        if (mem.readEnable != kNoNet) read[mem.readEnable] = true;
      }
      // Fault sites are live even when nothing reads them.
      for (const auto& f : cur_.plan.faults) {
        if (f.net != kNoNet) read[f.net] = true;
        if (f.net2 != kNoNet) read[f.net2] = true;
        if (f.cell != kNoCell) read[cur_.nl.cell(f.cell).output] = true;
      }
      std::vector<bool> drop(cur_.nl.cellCount(), false);
      bool any = false;
      for (CellId c = 0; c < cur_.nl.cellCount(); ++c) {
        const auto& cell = cur_.nl.cell(c);
        if (cell.type == CellType::Output) continue;
        if (cell.output != kNoNet && !read[cell.output] &&
            cur_.nl.net(cell.output).memDriver == netlist::kNoMemory) {
          drop[c] = true;
          any = true;
        }
      }
      if (!any) return;
      std::vector<bool> promote(cur_.nl.netCount(), false);
      auto cand = rebuild(cur_.nl, cur_.plan, drop, promote);
      if (!cand || !accept(std::move(*cand))) return;
    }
  }

  void bypassCells() {
    for (CellId c = 0; c < cur_.nl.cellCount(); ++c) {
      const auto& cell = cur_.nl.cell(c);
      if (cell.type == CellType::Input || cell.type == CellType::Output ||
          cell.output == kNoNet) {
        continue;
      }
      std::vector<bool> drop(cur_.nl.cellCount(), false);
      drop[c] = true;
      std::vector<bool> promote(cur_.nl.netCount(), false);
      promote[cell.output] = true;
      if (auto cand = rebuild(cur_.nl, cur_.plan, drop, promote)) {
        if (accept(std::move(*cand))) --c;
      }
    }
  }

  const ShrinkOptions& opt_;
  Candidate cur_;
  std::size_t calls_ = 0;
};

}  // namespace

ShrinkResult shrinkFailure(const Netlist& nl, const TestPlan& plan,
                           const ShrinkOptions& opt) {
  return Shrinker(nl, plan, opt).run();
}

void writeRepro(const std::string& nlPath, const std::string& planPath,
                const Netlist& nl, const TestPlan& plan) {
  std::ofstream nlOut(nlPath);
  if (!nlOut) throw std::runtime_error("cannot write " + nlPath);
  netlist::writeNetlist(nlOut, nl);
  std::ofstream planOut(planPath);
  if (!planOut) throw std::runtime_error("cannot write " + planPath);
  writePlan(planOut, nl, plan);
}

ReproCase loadRepro(const std::string& nlPath, const std::string& planPath) {
  std::ifstream nlIn(nlPath);
  if (!nlIn) throw std::runtime_error("cannot read " + nlPath);
  ReproCase repro;
  repro.design = netlist::readNetlist(nlIn);
  std::ifstream planIn(planPath);
  if (!planIn) throw std::runtime_error("cannot read " + planPath);
  repro.plan = readPlan(planIn, repro.design);
  return repro;
}

}  // namespace socfmea::testkit
