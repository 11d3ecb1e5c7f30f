#include "faultsim/stimulus.hpp"

#include "sim/simulator.hpp"

namespace socfmea::faultsim {

StimulusTrace recordStimulus(const netlist::CompiledDesignPtr& cd,
                             sim::Workload& wl) {
  const netlist::Netlist& nl = cd->design();
  StimulusTrace t;
  for (netlist::CellId pi : nl.primaryInputs()) {
    t.inputs.push_back(nl.cell(pi).output);
  }
  sim::Simulator sim(cd);
  wl.restart();
  sim.reset();
  t.values.reserve(wl.cycles());
  for (std::uint64_t c = 0; c < wl.cycles(); ++c) {
    wl.drive(sim, c);
    wl.backdoor(sim, c);
    sim.evalComb();
    std::vector<bool> row;
    row.reserve(t.inputs.size());
    for (netlist::NetId n : t.inputs) {
      row.push_back(sim.value(n) == sim::Logic::L1);
    }
    t.values.push_back(std::move(row));
    sim.clockEdge();
  }
  return t;
}

}  // namespace socfmea::faultsim
