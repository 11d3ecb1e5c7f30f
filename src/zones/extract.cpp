#include "zones/extract.hpp"

#include <algorithm>
#include <map>

namespace socfmea::zones {

using netlist::Cell;
using netlist::CellId;
using netlist::CellType;
using netlist::DffPins;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;

namespace {

// Longest sub-block prefix that owns `name` ("pfx" owns "pfx/..."), or "".
std::string_view owningPrefix(std::string_view name,
                              const std::vector<std::string>& prefixes) {
  std::string_view best;
  for (const std::string& p : prefixes) {
    if (name.size() <= p.size() || name.compare(0, p.size(), p) != 0) continue;
    if (name[p.size()] != '/') continue;
    if (p.size() > best.size()) best = p;
  }
  return best;
}

// Cone roots of a flip-flop: everything that converges into its next state —
// D, plus enable and reset logic.
void appendFfRoots(const Netlist& nl, CellId ff, std::vector<NetId>& roots) {
  const Cell& c = nl.cell(ff);
  roots.push_back(c.inputs[DffPins::kD]);
  if (c.inputs[DffPins::kEn] != kNoNet) roots.push_back(c.inputs[DffPins::kEn]);
  if (c.inputs[DffPins::kRst] != kNoNet) roots.push_back(c.inputs[DffPins::kRst]);
}

}  // namespace

ZoneDatabase extractZones(const Netlist& nl, const ExtractOptions& opt) {
  return extractZones(netlist::compile(nl), opt);
}

ZoneDatabase extractZones(netlist::CompiledDesignPtr cdp,
                          const ExtractOptions& opt) {
  const netlist::CompiledDesign& cd = *cdp;
  const Netlist& nl = cd.design();
  ZoneDatabase db(cdp);

  // --- group flip-flops ------------------------------------------------------
  // Key: sub-block prefix if owned, else register stem (compacted), else the
  // full FF name.
  std::map<std::string, std::vector<CellId>> subBlockFfs;
  std::map<std::string, std::vector<CellId>> registerFfs;

  for (CellId ff : nl.flipFlops()) {
    const Cell& c = nl.cell(ff);
    const std::string_view block = owningPrefix(c.name, opt.subBlockPrefixes);
    if (!block.empty()) {
      subBlockFfs[std::string(block)].push_back(ff);
      continue;
    }
    std::string key{c.name};
    if (opt.compactRegisters) {
      int bit = -1;
      key = std::string(netlist::registerStem(c.name, bit));
    }
    registerFfs[key].push_back(ff);
  }

  for (auto& [stem, ffs] : registerFfs) {
    SensibleZone z;
    z.kind = ZoneKind::Register;
    z.name = stem;
    z.ffs = ffs;
    for (CellId ff : ffs) {
      z.valueNets.push_back(nl.cell(ff).output);
      appendFfRoots(nl, ff, z.coneRoots);
    }
    z.cone = netlist::faninCone(cd, z.coneRoots);
    db.addZone(std::move(z));
  }

  for (auto& [prefix, ffs] : subBlockFfs) {
    SensibleZone z;
    z.kind = ZoneKind::SubBlock;
    z.name = prefix;
    z.ffs = ffs;
    for (CellId ff : ffs) {
      z.valueNets.push_back(nl.cell(ff).output);
      appendFfRoots(nl, ff, z.coneRoots);
    }
    z.cone = netlist::faninCone(cd, z.coneRoots);
    db.addZone(std::move(z));
  }

  // --- primary I/O -----------------------------------------------------------
  for (CellId pi : nl.primaryInputs()) {
    SensibleZone z;
    z.kind = ZoneKind::PrimaryInput;
    z.name = nl.cell(pi).name;
    z.valueNets.push_back(nl.cell(pi).output);
    db.addZone(std::move(z));
  }
  for (CellId po : nl.primaryOutputs()) {
    SensibleZone z;
    z.kind = ZoneKind::PrimaryOutput;
    z.name = nl.cell(po).name;
    z.valueNets.push_back(nl.cell(po).inputs[0]);
    z.coneRoots = z.valueNets;
    z.cone = netlist::faninCone(cd, z.coneRoots);
    db.addZone(std::move(z));
  }

  // --- critical nets ---------------------------------------------------------
  if (opt.criticalNetFanout > 0) {
    for (NetId n = 0; n < nl.netCount(); ++n) {
      if (cd.fanoutCount(n) < opt.criticalNetFanout) continue;
      const auto& net = nl.net(n);
      SensibleZone z;
      z.kind = ZoneKind::CriticalNet;
      z.name = net.name.empty() ? ("net#" + std::to_string(n)) : net.name;
      z.valueNets.push_back(n);
      z.coneRoots.push_back(n);
      z.cone = netlist::faninCone(cd, z.coneRoots);
      db.addZone(std::move(z));
    }
  }

  // --- memories ---------------------------------------------------------------
  for (netlist::MemoryId m = 0; m < nl.memoryCount(); ++m) {
    const auto& mem = nl.memory(m);
    SensibleZone z;
    z.kind = ZoneKind::Memory;
    z.name = mem.name;
    z.mem = m;
    z.valueNets = mem.rdata;
    z.coneRoots = mem.addr;
    z.coneRoots.insert(z.coneRoots.end(), mem.wdata.begin(), mem.wdata.end());
    z.coneRoots.push_back(mem.writeEnable);
    if (mem.readEnable != kNoNet) z.coneRoots.push_back(mem.readEnable);
    z.cone = netlist::faninCone(cd, z.coneRoots);
    db.addZone(std::move(z));
  }

  // --- user-declared logical entities -----------------------------------------
  for (const LogicalEntitySpec& spec : opt.logicalEntities) {
    SensibleZone z;
    z.kind = ZoneKind::LogicalEntity;
    z.name = spec.name;
    for (const std::string& name : spec.nets) {
      const auto net = nl.findNet(name);
      if (!net) {
        throw netlist::NetlistError("logical entity '" + spec.name +
                                    "' references unknown net '" + name + "'");
      }
      z.valueNets.push_back(*net);
      // A net carried by a flip-flop makes that flop part of the entity.
      const auto drv = nl.net(*net).driver;
      if (drv != netlist::kNoCell &&
          nl.cell(drv).type == CellType::Dff) {
        z.ffs.push_back(drv);
      }
    }
    z.coneRoots = z.valueNets;
    z.cone = netlist::faninCone(cd, z.coneRoots);
    db.addZone(std::move(z));
  }

  db.buildIndices();
  return db;
}

}  // namespace socfmea::zones
