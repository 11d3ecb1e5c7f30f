// Recorded stimulus: one fault-free run captures what the workload drives
// per cycle and the memory bit flips its backdoor makes, and both engines
// replay the recording instead of calling the workload — drive() may mutate
// workload state, and replay never calls it.  The serial oracle's machine
// step (faultsim::runMachine) replays it for the golden and every faulty
// machine; the bit-sliced engine replays it on its lockstep golden machine
// and mirrors the flips into lane-owned memory clones.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compiled.hpp"
#include "sim/workload.hpp"

namespace socfmea::faultsim {

/// Recorded per-cycle primary-input stimulus plus backdoor flips.
struct StimulusTrace {
  std::vector<netlist::NetId> inputs;     ///< primary input nets
  std::vector<std::vector<bool>> values;  ///< [cycle][input]
  /// [cycle] backdoor flips, applied after the inputs and before the
  /// settle.  Not part of the incremental flow's stimulus hash.
  std::vector<std::vector<sim::MemFlip>> flips;
  [[nodiscard]] std::uint64_t cycles() const noexcept { return values.size(); }

  /// Drives cycle `c` onto `sim`: the input values, then the flips.
  void apply(sim::Simulator& sim, std::uint64_t c) const;
};

/// Records the stimulus a workload produces (one fault-free run on a
/// Simulator that shares `cd`, restarted and from all-zero memories).  The
/// only campaign step that calls the workload.
[[nodiscard]] StimulusTrace recordStimulus(const netlist::CompiledDesignPtr& cd,
                                           sim::Workload& wl);

}  // namespace socfmea::faultsim
