#include "faultsim/stimulus.hpp"

#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace socfmea::faultsim {

void StimulusTrace::apply(sim::Simulator& sim, std::uint64_t c) const {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    sim.setInput(inputs[i], sim::fromBool(values[c][i]));
  }
  for (const sim::MemFlip& f : flips[c]) {
    sim.memory(f.mem).flipBit(f.addr, f.bit);
  }
}

StimulusTrace recordStimulus(const netlist::CompiledDesignPtr& cd,
                             const sim::Workload& wl) {
  const obs::ScopedTimer timer("inject.record_stimulus");
  const netlist::Netlist& nl = cd->design();
  StimulusTrace t;
  for (netlist::CellId pi : nl.primaryInputs()) {
    t.inputs.push_back(nl.cell(pi).output);
  }
  // The workload only sets inputs and reads no machine state, so the
  // machine is never clocked: each cycle's drive lands on the previous
  // cycle's input values.
  sim::Simulator sim(cd);
  t.values.reserve(wl.cycles());
  t.flips.reserve(wl.cycles());
  for (std::uint64_t c = 0; c < wl.cycles(); ++c) {
    wl.drive(sim, c);
    wl.backdoor(c, t.flips.emplace_back());
    std::vector<bool> row;
    row.reserve(t.inputs.size());
    for (netlist::NetId n : t.inputs) {
      row.push_back(sim.value(n) == sim::Logic::L1);
    }
    t.values.push_back(std::move(row));
  }
  return t;
}

}  // namespace socfmea::faultsim
