// Structural fault collapsing.  Since the fault universe places stuck-at
// faults on nets (gate outputs), the classical pin-level equivalence rules
// reduce to collapsing through single-fanout buffers and inverters:
//
//   buf: sa0(in) == sa0(out), sa1(in) == sa1(out)
//   not: sa0(in) == sa1(out), sa1(in) == sa0(out)
//
// valid when the input net has no other reader.  The collapser keeps the
// fault on the *driver-side* (earlier) net as the representative, which is
// also where the FIT weight is attributed.
#pragma once

#include <cstddef>

#include "fault/fault_list.hpp"

namespace socfmea::fault {

struct CollapseStats {
  std::size_t before = 0;
  std::size_t after = 0;
  [[nodiscard]] double ratio() const noexcept {
    return before == 0 ? 1.0
                       : static_cast<double>(after) / static_cast<double>(before);
  }
};

/// Collapses equivalent stuck-at faults in place; other fault kinds pass
/// through untouched.  Returns before/after sizes.
CollapseStats collapseStuckAt(const netlist::Netlist& nl, FaultList& faults);

}  // namespace socfmea::fault
