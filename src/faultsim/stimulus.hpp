// Recorded primary-input stimulus: one fault-free run captures what the
// workload drives per cycle, and both engines replay the recording (plus the
// workload's deterministic backdoor actions) instead of calling drive() per
// faulty machine — drive() may mutate workload state, replay may not.  The
// serial oracle's machine step (faultsim::runMachine) replays it for the
// golden and every faulty machine; the bit-sliced engine replays it on its
// lockstep golden machine.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compiled.hpp"
#include "sim/workload.hpp"

namespace socfmea::faultsim {

/// Recorded per-cycle primary-input stimulus.
struct StimulusTrace {
  std::vector<netlist::NetId> inputs;     ///< primary input nets
  std::vector<std::vector<bool>> values;  ///< [cycle][input]
  [[nodiscard]] std::uint64_t cycles() const noexcept { return values.size(); }
};

/// Records the stimulus a workload produces (one fault-free run on a
/// Simulator that shares `cd`).
[[nodiscard]] StimulusTrace recordStimulus(const netlist::CompiledDesignPtr& cd,
                                           sim::Workload& wl);

}  // namespace socfmea::faultsim
