// Constrained-random stimulus over all primary inputs.  Domain workloads
// (memory traffic, scrub cycles, MPU violations) live in
// memsys/workloads.hpp.
#pragma once

#include <utility>
#include <vector>

#include "faultsim/stimulus.hpp"

namespace socfmea::inject {

/// Uniform random stimulus on every primary input, with optional pinned
/// inputs (reset, enables) held at fixed values: a trace drawn at
/// construction, cycle by cycle in primary-input order.
class RandomWorkload final : public faultsim::StimulusTrace {
 public:
  RandomWorkload(
      const netlist::Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
      const std::vector<std::pair<netlist::NetId, bool>>& pinned = {});
};

}  // namespace socfmea::inject
