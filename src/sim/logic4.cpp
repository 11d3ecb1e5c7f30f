#include "sim/logic4.hpp"

namespace socfmea::sim {

using netlist::CellType;

Logic evalCell(CellType type, std::span<const Logic> in) {
  switch (type) {
    case CellType::Const0:
      return Logic::L0;
    case CellType::Const1:
      return Logic::L1;
    case CellType::Buf:
      return in[0];
    case CellType::Not:
      return logicNot(in[0]);
    case CellType::And:
    case CellType::Nand: {
      bool v = true;
      for (Logic i : in) v &= i == Logic::L1;
      return fromBool(v != (type == CellType::Nand));
    }
    case CellType::Or:
    case CellType::Nor: {
      bool v = false;
      for (Logic i : in) v |= i == Logic::L1;
      return fromBool(v != (type == CellType::Nor));
    }
    case CellType::Xor:
    case CellType::Xnor: {
      bool v = false;
      for (Logic i : in) v ^= i == Logic::L1;
      return fromBool(v != (type == CellType::Xnor));
    }
    case CellType::Mux2:
      return in[0] == Logic::L1 ? in[2] : in[1];
    default:
      return Logic::L0;  // sequential / port cells are not evaluated here
  }
}

}  // namespace socfmea::sim
