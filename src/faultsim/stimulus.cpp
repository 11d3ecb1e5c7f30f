#include "faultsim/stimulus.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace socfmea::faultsim {

StimulusTrace::StimulusTrace(const netlist::Netlist& nl,
                             std::uint64_t cycles) {
  for (netlist::CellId pi : nl.primaryInputs()) {
    inputs.push_back(nl.cell(pi).output);
  }
  values.assign(cycles, std::vector<bool>(inputs.size(), false));
}

std::size_t StimulusTrace::column(netlist::NetId net) const {
  const auto it = std::find(inputs.begin(), inputs.end(), net);
  if (it == inputs.end()) {
    throw std::invalid_argument("stimulus trace drives no input net #" +
                                std::to_string(net));
  }
  return static_cast<std::size_t>(it - inputs.begin());
}

void StimulusTrace::apply(sim::Simulator& sim, std::uint64_t c) const {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    sim.setInput(inputs[i], sim::fromBool(values[c][i]));
  }
  for (const sim::MemFlip& f : flipsAt(c)) {
    sim.memory(f.mem).flipBit(f.addr, f.bit);
  }
}

}  // namespace socfmea::faultsim
