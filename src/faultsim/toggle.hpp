// Toggle-count coverage: validation step (b) of the paper — "the efficiency
// of the workload in covering the HW gates of the gate-level netlist is
// measured, for instance by using a toggle count coverage ...  If the toggle
// count percentage (i.e. nets/gates toggling at least once) ... is greater
// than a defined value (default 99%), the validation is successful."
#pragma once

#include <iosfwd>
#include <vector>

#include "faultsim/golden_run.hpp"

namespace socfmea::faultsim {

struct ToggleCoverage {
  std::size_t nets = 0;          ///< observable nets considered
  std::size_t toggledOnce = 0;   ///< nets that changed value at least once
  std::size_t toggledBoth = 0;   ///< nets seen both rising and falling
  std::vector<netlist::NetId> untoggled;

  [[nodiscard]] double onceFraction() const noexcept {
    return nets == 0 ? 1.0
                     : static_cast<double>(toggledOnce) / static_cast<double>(nets);
  }
  [[nodiscard]] double bothFraction() const noexcept {
    return nets == 0 ? 1.0
                     : static_cast<double>(toggledBoth) / static_cast<double>(nets);
  }
  /// The paper's default acceptance: >= threshold nets toggling at least once.
  [[nodiscard]] bool passes(double threshold = 0.99) const noexcept {
    return onceFraction() >= threshold;
  }
};

/// Structurally constant nets: fixed by constant drivers, self-looped
/// configuration registers (d == q holding the reset image), or gates whose
/// output is pinned by controlling constant inputs.  No workload can toggle
/// them, so the coverage metric excludes them from its denominator — the
/// equivalent of the constant-propagation screening commercial coverage
/// tools apply before scoring.
[[nodiscard]] std::vector<bool> structurallyConstantNets(
    const netlist::Netlist& nl);

/// Measures net toggling over the golden run's rows (cycles 0 to cycles - 1).
/// Constant-driven and structurally constant nets are excluded from the
/// denominator (they cannot toggle by design).
[[nodiscard]] ToggleCoverage measureToggle(const GoldenRun& golden);

void printToggle(std::ostream& out, const netlist::Netlist& nl,
                 const ToggleCoverage& tc, std::size_t maxUntoggled = 10);

}  // namespace socfmea::faultsim
