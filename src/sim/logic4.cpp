#include "sim/logic4.hpp"

namespace socfmea::sim {

using netlist::CellType;

Logic logicNot(Logic a) noexcept {
  if (a == Logic::L0) return Logic::L1;
  if (a == Logic::L1) return Logic::L0;
  return Logic::LX;
}

Logic logicAnd(Logic a, Logic b) noexcept {
  if (a == Logic::L0 || b == Logic::L0) return Logic::L0;
  if (a == Logic::L1 && b == Logic::L1) return Logic::L1;
  return Logic::LX;
}

Logic logicOr(Logic a, Logic b) noexcept {
  if (a == Logic::L1 || b == Logic::L1) return Logic::L1;
  if (a == Logic::L0 && b == Logic::L0) return Logic::L0;
  return Logic::LX;
}

Logic logicXor(Logic a, Logic b) noexcept {
  if (isUnknown(a) || isUnknown(b)) return Logic::LX;
  return fromBool((a == Logic::L1) != (b == Logic::L1));
}

Logic evalCell(CellType type, std::span<const Logic> in) {
  switch (type) {
    case CellType::Const0:
      return Logic::L0;
    case CellType::Const1:
      return Logic::L1;
    case CellType::Buf:
      return isUnknown(in[0]) ? Logic::LX : in[0];
    case CellType::Not:
      return logicNot(in[0]);
    case CellType::And: {
      Logic v = Logic::L1;
      for (Logic i : in) v = logicAnd(v, i);
      return v;
    }
    case CellType::Nand: {
      Logic v = Logic::L1;
      for (Logic i : in) v = logicAnd(v, i);
      return logicNot(v);
    }
    case CellType::Or: {
      Logic v = Logic::L0;
      for (Logic i : in) v = logicOr(v, i);
      return v;
    }
    case CellType::Nor: {
      Logic v = Logic::L0;
      for (Logic i : in) v = logicOr(v, i);
      return logicNot(v);
    }
    case CellType::Xor: {
      Logic v = Logic::L0;
      for (Logic i : in) v = logicXor(v, i);
      return v;
    }
    case CellType::Xnor: {
      Logic v = Logic::L0;
      for (Logic i : in) v = logicXor(v, i);
      return logicNot(v);
    }
    case CellType::Mux2: {
      const Logic sel = in[0];
      if (sel == Logic::L0) return isUnknown(in[1]) ? Logic::LX : in[1];
      if (sel == Logic::L1) return isUnknown(in[2]) ? Logic::LX : in[2];
      // Unknown select: result known only if both legs agree on a value.
      if (in[1] == in[2] && !isUnknown(in[1])) return in[1];
      return Logic::LX;
    }
    default:
      return Logic::LX;  // sequential / port cells are not evaluated here
  }
}

std::uint64_t packBits(std::span<const Logic> bits, std::uint64_t* unknownMask) {
  std::uint64_t value = 0;
  std::uint64_t unknown = 0;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i) {
    if (bits[i] == Logic::L1) {
      value |= (std::uint64_t{1} << i);
    } else if (isUnknown(bits[i])) {
      unknown |= (std::uint64_t{1} << i);
    }
  }
  if (unknownMask != nullptr) *unknownMask = unknown;
  return value;
}

std::vector<Logic> unpackBits(std::uint64_t value, std::size_t width) {
  std::vector<Logic> out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = fromBool((value >> i) & 1u);
  }
  return out;
}

}  // namespace socfmea::sim
