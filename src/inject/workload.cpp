#include "inject/workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/rng.hpp"

namespace socfmea::inject {

namespace {

std::vector<netlist::NetId> primaryInputNets(const netlist::Netlist& nl) {
  std::vector<netlist::NetId> nets;
  for (netlist::CellId pi : nl.primaryInputs()) {
    nets.push_back(nl.cell(pi).output);
  }
  return nets;
}

/// One coin per unpinned primary input and cycle, in cycle then input
/// order.
std::vector<std::vector<bool>> randomTable(
    const netlist::Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
    const std::vector<std::pair<netlist::NetId, bool>>& pinned) {
  sim::Rng rng(seed);
  std::vector<std::vector<bool>> values(cycles);
  for (std::vector<bool>& row : values) {
    for (netlist::CellId pi : nl.primaryInputs()) {
      const netlist::NetId net = nl.cell(pi).output;
      const auto pin =
          std::find_if(pinned.begin(), pinned.end(),
                       [&](const auto& p) { return p.first == net; });
      row.push_back(pin != pinned.end() ? pin->second : rng.coin());
    }
  }
  return values;
}

}  // namespace

VectorWorkload::VectorWorkload(std::vector<netlist::NetId> inputs,
                               std::vector<std::vector<bool>> values)
    : inputs_(std::move(inputs)), values_(std::move(values)) {
  for (const auto& row : values_) {
    if (row.size() != inputs_.size()) {
      throw std::invalid_argument("vector width mismatch in VectorWorkload");
    }
  }
}

void VectorWorkload::drive(sim::Simulator& sim, std::uint64_t cycle) const {
  const auto& row = values_.at(cycle);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    sim.setInput(inputs_[i], sim::fromBool(row[i]));
  }
}

RandomWorkload::RandomWorkload(
    const netlist::Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
    const std::vector<std::pair<netlist::NetId, bool>>& pinned)
    : VectorWorkload(primaryInputNets(nl),
                     randomTable(nl, cycles, seed, pinned)) {}

}  // namespace socfmea::inject
