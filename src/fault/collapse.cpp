#include "fault/collapse.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace socfmea::fault {

using netlist::Cell;
using netlist::CellId;
using netlist::CellType;
using netlist::NetId;

namespace {

// Representative of a stuck-at fault: walk backward through single-fanout
// buf/not chains, flipping polarity at each inverter.
struct Rep {
  NetId net;
  bool value;  // stuck-at value at the representative net
};

Rep representative(const netlist::Netlist& nl, NetId net, bool value) {
  for (;;) {
    const CellId drv = nl.net(net).driver;
    if (drv == netlist::kNoCell) return {net, value};
    const Cell& c = nl.cell(drv);
    if (c.type != CellType::Buf && c.type != CellType::Not) return {net, value};
    const NetId in = c.inputs[0];
    // Only collapse when the chain is the sole reader of the input net;
    // otherwise the input-net fault also disturbs other logic and is NOT
    // equivalent.
    if (nl.net(in).fanout.size() != 1) return {net, value};
    if (c.type == CellType::Not) value = !value;
    net = in;
  }
}

}  // namespace

CollapseStats collapseStuckAt(const netlist::Netlist& nl, FaultList& faults) {
  CollapseStats stats;
  stats.before = faults.size();
  for (Fault& f : faults) {
    if (f.kind != FaultKind::StuckAt0 && f.kind != FaultKind::StuckAt1) continue;
    const Rep r = representative(nl, f.net, f.kind == FaultKind::StuckAt1);
    f.net = r.net;
    f.kind = r.value ? FaultKind::StuckAt1 : FaultKind::StuckAt0;
    const CellId drv = nl.net(r.net).driver;
    if (drv != netlist::kNoCell) f.cell = drv;
  }
  std::sort(faults.begin(), faults.end());
  faults.erase(std::unique(faults.begin(), faults.end()), faults.end());
  stats.after = faults.size();

  auto& reg = obs::Registry::global();
  reg.add("fault.collapse.before", stats.before);
  reg.add("fault.collapse.after", stats.after);
  reg.set("fault.collapse.ratio", stats.ratio());
  return stats;
}

}  // namespace socfmea::fault
