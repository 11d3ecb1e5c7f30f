// Cone traversals.  The sensible-zone theory of the paper is built on the
// *input logic cone* of a zone (all combinational gates whose faults converge
// into the zone) and the *output cone* (through which a zone failure migrates
// to other zones and observation points).
#pragma once

#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"

namespace socfmea::netlist {

/// A fan-in cone: the combinational gates feeding a set of root nets, stopping
/// at sequential elements, primary inputs and memory read ports.
struct Cone {
  std::vector<CellId> gates;       ///< combinational cells in the cone
  std::vector<CellId> supportFfs;  ///< flip-flops on the cone boundary
  std::vector<CellId> supportPis;  ///< primary inputs on the boundary
  std::vector<MemoryId> supportMems;  ///< memories whose rdata feeds the cone
  std::vector<NetId> nets;         ///< nets internal to / feeding the cone
};

/// Computes the fan-in cone of `roots` (net ids) over the CSR adjacency.
[[nodiscard]] Cone faninCone(const CompiledDesign& cd,
                             const std::vector<NetId>& roots);

/// Computes the set of cells reachable *forward* from `srcNets` through
/// combinational logic, crossing flip-flops transparently when
/// `throughRegisters` is true (i.e. multi-cycle reachability) and crossing
/// behavioural memories (a corrupted write resurfaces on the read port) when
/// `throughMemories` is true.  Returns cell ids of every reached cell
/// including flip-flops and output ports.  Runs the shared compiled walker
/// (ForwardReach below).
[[nodiscard]] std::vector<CellId> forwardReach(const CompiledDesign& cd,
                                               const std::vector<NetId>& srcNets,
                                               bool throughRegisters,
                                               bool throughMemories = false);

/// The same walk over the Netlist's own per-net vectors, with the memory
/// write-port map rebuilt per call.  No flow calls it: it is the
/// independent reference the traversal property tests check the compiled
/// walker against.
[[nodiscard]] std::vector<CellId> forwardReach(const Netlist& nl,
                                               const std::vector<NetId>& srcNets,
                                               bool throughRegisters,
                                               bool throughMemories = false);

/// Flag form of the forward closure over the compiled CSR adjacency: every
/// net, cell and memory whose value can be perturbed by a disturbance on the
/// seeds, crossing flip-flops and memory write ports.  The incremental
/// flow's affected-cone "D" set (netlist/diff) is built on it, and the
/// compiled cell-list forwardReach above runs the same walker.
struct ForwardReach {
  std::vector<char> net;   ///< indexed by NetId
  std::vector<char> cell;  ///< indexed by CellId
  std::vector<char> mem;   ///< indexed by MemoryId
};

[[nodiscard]] ForwardReach forwardReach(const CompiledDesign& cd,
                                        const std::vector<NetId>& seeds);

/// Extends an existing closure by additional seeds in place (reachability is
/// union-distributive, so merging per-seed closures equals one closure over
/// the union).  Already-marked nodes are not re-walked.
void extendForwardReach(const CompiledDesign& cd, ForwardReach& reach,
                        const std::vector<NetId>& seeds);

}  // namespace socfmea::netlist
