// Recorded stimulus: what the workload drives per cycle and the memory bit
// flips its backdoor makes, captured once per flow by recordStimulus — the
// workload's only caller — and handed down to every consumer, which replays
// it instead of calling the workload.  The fault-free and every faulty
// machine of the serial oracle step through faultsim::runMachine, which
// replays it; the bit-sliced engine replays it on its lockstep golden
// machine and mirrors the flips into lane-owned memory clones.
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

/// Records the stimulus `wl` produces on the primary inputs of `cd`'s
/// design (an input the workload never drives reads 0), timed as the
/// inject.record_stimulus telemetry timer.
[[nodiscard]] StimulusTrace recordStimulus(const netlist::CompiledDesignPtr& cd,
                                           const sim::Workload& wl);

}  // namespace socfmea::faultsim
