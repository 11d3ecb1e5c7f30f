#include "inject/workload.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace socfmea::inject {

RandomWorkload::RandomWorkload(
    const netlist::Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
    const std::vector<std::pair<netlist::NetId, bool>>& pinned)
    : StimulusTrace(nl, cycles) {
  // One coin per unpinned primary input and cycle, in cycle then input
  // order.
  sim::Rng rng(seed);
  for (std::vector<bool>& row : values) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto pin =
          std::find_if(pinned.begin(), pinned.end(),
                       [&](const auto& p) { return p.first == inputs[i]; });
      row[i] = pin != pinned.end() ? pin->second : rng.coin();
    }
  }
}

}  // namespace socfmea::inject
