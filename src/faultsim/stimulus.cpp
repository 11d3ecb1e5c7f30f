#include "faultsim/stimulus.hpp"

#include "sim/simulator.hpp"

namespace socfmea::faultsim {

void StimulusTrace::apply(sim::Simulator& sim, std::uint64_t c) const {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    sim.setInput(inputs[i], sim::fromBool(values[c][i]));
  }
  sim::applyFlips(sim, flips[c]);
}

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
  t.flips.reserve(wl.cycles());
  for (std::uint64_t c = 0; c < wl.cycles(); ++c) {
    wl.drive(sim, c);
    std::vector<sim::MemFlip>& flips = t.flips.emplace_back();
    wl.backdoor(c, flips);
    sim::applyFlips(sim, flips);
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
