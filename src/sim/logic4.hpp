// Multi-valued logic for cycle-based simulation.  The simulator is
// three-valued (0/1/X): X models uninitialized state and propagates
// pessimistically through gates, which is what the paper's environment needs
// to tell "zone never initialized" apart from "zone at a real value".
// Z is defined for completeness of the value type (buses imported from
// outside), and evaluates like X.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/cell.hpp"

namespace socfmea::sim {

enum class Logic : std::uint8_t {
  L0 = 0,
  L1 = 1,
  LX = 2,
  LZ = 3,
};

[[nodiscard]] constexpr Logic fromBool(bool b) noexcept {
  return b ? Logic::L1 : Logic::L0;
}

/// True for X or Z.
[[nodiscard]] constexpr bool isUnknown(Logic v) noexcept {
  return v == Logic::LX || v == Logic::LZ;
}

/// Logical inversion with X-propagation.
[[nodiscard]] Logic logicNot(Logic a) noexcept;
/// Two-input primitives with dominant-value shortcuts (0 dominates AND,
/// 1 dominates OR) so X inputs don't always poison the result.
[[nodiscard]] Logic logicAnd(Logic a, Logic b) noexcept;
[[nodiscard]] Logic logicOr(Logic a, Logic b) noexcept;
[[nodiscard]] Logic logicXor(Logic a, Logic b) noexcept;

/// Evaluates one combinational cell type over its input values.
/// `inputs` layout matches Cell::inputs (Mux2: {sel,a,b}).
[[nodiscard]] Logic evalCell(netlist::CellType type, std::span<const Logic> inputs);

/// Packs up to 64 Logic values into an integer; unknown bits read as 0 and
/// set the corresponding bit in `*unknownMask` when provided.
[[nodiscard]] std::uint64_t packBits(std::span<const Logic> bits,
                                     std::uint64_t* unknownMask = nullptr);

/// Unpacks an integer into `width` Logic values (LSB first).
[[nodiscard]] std::vector<Logic> unpackBits(std::uint64_t value, std::size_t width);

}  // namespace socfmea::sim
