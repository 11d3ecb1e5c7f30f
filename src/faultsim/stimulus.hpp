// Stimulus trace: what the testbench drives on the primary inputs per cycle
// and the memory bit flips its backdoor makes.  A workload is a trace: the
// workloads (memsys::ProtectionIpWorkload, cpu::CpuWorkload,
// inject::RandomWorkload) derive from StimulusTrace and write its rows in
// their constructors, a test plan carries one, and a flow hands it down to
// every consumer unchanged.  The fault-free and every faulty machine of the
// serial oracle step through faultsim::runMachine, which replays it; the
// fault-free replay is recorded once per flow (faultsim::GoldenRun), and
// the bit-sliced engine reads that record and applies the flips to its
// golden arrays and the lane-owned memory clones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"

namespace socfmea::faultsim {

/// Per-cycle primary-input stimulus plus backdoor flips.
struct StimulusTrace {
  std::vector<netlist::NetId> inputs;     ///< driven input nets
  std::vector<std::vector<bool>> values;  ///< [cycle][input]
  /// [cycle] backdoor flips, applied after the inputs and before the
  /// settle.  May be shorter than `values`: a cycle past its end flips
  /// nothing.  Not part of the incremental flow's stimulus hash.
  std::vector<std::vector<sim::MemFlip>> flips;

  StimulusTrace() = default;
  /// `cycles` all-zero rows over the primary inputs of `nl`, in their
  /// order: a workload starts here, so an input it never drives reads 0.
  StimulusTrace(const netlist::Netlist& nl, std::uint64_t cycles);

  [[nodiscard]] std::uint64_t cycles() const noexcept { return values.size(); }
  /// The column of input net `net`; throws std::invalid_argument when the
  /// trace does not drive it.
  [[nodiscard]] std::size_t column(netlist::NetId net) const;
  /// Cycle `c`'s backdoor flips.
  [[nodiscard]] std::span<const sim::MemFlip> flipsAt(std::uint64_t c) const {
    if (c >= flips.size()) return {};
    return flips[c];
  }

  /// Drives cycle `c` onto `sim`: the input values, then the flips.
  void apply(sim::Simulator& sim, std::uint64_t c) const;
};

}  // namespace socfmea::faultsim
