// Netlist diffing and affected-cone closure — the structural substrate of
// the incremental flow graph.  diff() matches cells and memories between two
// designs by their (unique, mandatory) instance names and classifies each as
// added / removed / changed; net identity is derived from the *driver* (cell
// name, or memory name + rdata bit), never from net names, so anonymous nets
// and the text writer's synthetic "$n<id>" names compare as the same wire.
//
// affectedCone() then computes, on the compiled CSR adjacency of the NEW
// design, the set of fault sites whose campaign verdict could differ from a
// run on the OLD design:
//
//   D = multi-cycle forward reach of every edit seed (outputs of added or
//       changed cells, rdata of added/changed memories, inputs whose
//       stimulus stream changed), crossing flip-flops and memories — an
//       over-approximation of every net whose *golden* value can differ.
//   R = multi-cycle transitive fan-in of D ∪ changed cells, again crossing
//       flip-flops and memories backward.
//
// A fault whose site is outside R has a forward cone disjoint from D (if a
// node of its cone were in D, the site would be in D's fan-in, i.e. in R).
// Its deviation dynamics therefore only ever traverse logic whose structure
// AND golden values are identical between the two runs, so the recorded
// verdict, observation cycles and deviation sets carry over bit-for-bit —
// the soundness argument DESIGN.md spells out and the oracle tests enforce.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "netlist/traversal.hpp"

namespace socfmea::netlist {

/// Cell/memory-level delta between two designs (names refer to design B
/// except `removed*`, which only exist in A).
struct NetlistDiff {
  std::vector<std::string> addedCells;
  std::vector<std::string> removedCells;
  std::vector<std::string> changedCells;  ///< type / wiring / init differs
  std::vector<std::string> addedMems;
  std::vector<std::string> removedMems;
  std::vector<std::string> changedMems;   ///< geometry / port wiring differs

  /// Edit seeds in design B: outputs of added/changed cells and rdata nets
  /// of added/changed memories — where golden-value divergence can start.
  std::vector<NetId> seedNets;

  [[nodiscard]] bool identical() const noexcept {
    return addedCells.empty() && removedCells.empty() &&
           changedCells.empty() && addedMems.empty() && removedMems.empty() &&
           changedMems.empty();
  }
  [[nodiscard]] std::size_t touchedCells() const noexcept {
    return addedCells.size() + removedCells.size() + changedCells.size();
  }
};

/// Structural diff from design `a` (old) to design `b` (new).
[[nodiscard]] NetlistDiff diff(const Netlist& a, const Netlist& b);

// ForwardReach — the "D" set of affectedCone() — lives in
// netlist/traversal.hpp, next to the forward walker it shares with the
// cell-list forwardReach.

/// The resimulation set over design B: flags indexed by CellId / MemoryId.
struct AffectedCone {
  std::vector<char> cell;  ///< site cell must be re-simulated
  std::vector<char> mem;   ///< faults inside this memory must be re-simulated
  std::size_t forwardCells = 0;   ///< |D| (diagnostics)
  std::size_t affectedCells = 0;  ///< |R| (diagnostics)

  [[nodiscard]] bool cellAffected(CellId c) const {
    return c != kNoCell && c < cell.size() && cell[c] != 0;
  }
  [[nodiscard]] bool memAffected(MemoryId m) const {
    return m < mem.size() && mem[m] != 0;
  }
};

/// Computes the affected cone of `d` on compiled design B.  `extraSeedNets`
/// adds divergence sources the structural diff cannot see (primary inputs
/// whose recorded stimulus stream changed between the runs).
[[nodiscard]] AffectedCone affectedCone(const CompiledDesign& cd,
                                        const NetlistDiff& d,
                                        const std::vector<NetId>& extraSeedNets = {});

/// True when the fault's site lies inside the cone (conservative: unknown
/// or unresolvable sites count as affected).
[[nodiscard]] bool faultAffected(const AffectedCone& cone,
                                 const CompiledDesign& cd,
                                 const fault::Fault& f);

}  // namespace socfmea::netlist
