// Fault-list generation: enumerate the candidate fault universe of a design.
// The injection flow then collapses (collapse.hpp) and samples (Randomizer in
// inject/) this list.
#pragma once

#include <vector>

#include "fault/fault.hpp"
#include "sim/rng.hpp"

namespace socfmea::fault {

using FaultList = std::vector<Fault>;

/// Stuck-at-0/1 at every combinational gate output, flip-flop output and
/// primary input net.
[[nodiscard]] FaultList allStuckAtFaults(const netlist::Netlist& nl);

/// One SEU fault per flip-flop (injection cycle filled in later).
[[nodiscard]] FaultList allSeuFaults(const netlist::Netlist& nl);

/// One SET pulse fault per combinational gate output.
[[nodiscard]] FaultList allSetFaults(const netlist::Netlist& nl);

/// One delay (stale-sampling) fault per flip-flop.
[[nodiscard]] FaultList allDelayFaults(const netlist::Netlist& nl);

/// Bridging faults between nets that share a reading cell (adjacent-route
/// heuristic: real bridges happen between physically close wires, and wires
/// entering the same gate are routed together).  At most `maxPairs` pairs.
[[nodiscard]] FaultList bridgingFaults(const netlist::Netlist& nl,
                                       std::size_t maxPairs, sim::Rng& rng);

/// Memory fault samples for one memory instance: `perKind` faults of each
/// applicable kind at random addresses/bits.
[[nodiscard]] FaultList memoryFaults(const netlist::Netlist& nl,
                                     netlist::MemoryId mem, std::size_t perKind,
                                     sim::Rng& rng);

/// Appends `b` to `a`.
void append(FaultList& a, const FaultList& b);

}  // namespace socfmea::fault
