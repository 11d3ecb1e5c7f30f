// Two-valued logic for cycle-based simulation.  Every design the simulator
// runs went through netlist::compile, which runs Netlist::check(): every
// net has a driver, every required pin is connected and no combinational
// loop exists.  Every flip-flop resets to its init bit and every memory
// read register to 0, so after reset no net can read anything but 0 or 1.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/cell.hpp"

namespace socfmea::sim {

enum class Logic : std::uint8_t {
  L0 = 0,
  L1 = 1,
};

[[nodiscard]] constexpr Logic fromBool(bool b) noexcept {
  return b ? Logic::L1 : Logic::L0;
}

/// Two-valued primitives for the fault hooks (SET pulses invert a net,
/// bridges resolve two nets to their AND or OR).
[[nodiscard]] constexpr Logic logicNot(Logic a) noexcept {
  return fromBool(a == Logic::L0);
}
[[nodiscard]] constexpr Logic logicAnd(Logic a, Logic b) noexcept {
  return fromBool(a == Logic::L1 && b == Logic::L1);
}
[[nodiscard]] constexpr Logic logicOr(Logic a, Logic b) noexcept {
  return fromBool(a == Logic::L1 || b == Logic::L1);
}

/// Evaluates one combinational cell type over its input values.
/// `inputs` layout matches Cell::inputs (Mux2: {sel,a,b}).
[[nodiscard]] Logic evalCell(netlist::CellType type, std::span<const Logic> inputs);

}  // namespace socfmea::sim
