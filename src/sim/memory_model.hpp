// Behavioural memory with the IEC 61508 fault models for variable memories
// (61508-2 table A.6): DC fault model on data (stuck cell bits), no / wrong /
// multiple addressing, dynamic cross-over between cells (coupling), and
// change of information caused by soft errors (bit flips).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"

namespace socfmea::sim {

/// Address-decoder fault behaviour for a single affected address.
enum class AddressFaultKind : std::uint8_t {
  None,      ///< fault-free decode
  NoAccess,  ///< cell never selected: writes lost, reads return background
  Wrong,     ///< address maps to a different cell
  Multiple,  ///< address additionally selects a second cell (write both,
             ///< read wired-AND of both — classic bit-line behaviour)
};

/// A coupling (dynamic cross-over) fault: when the aggressor bit transitions
/// during a write, the victim bit is forced/flipped.
struct CouplingFault {
  std::uint64_t aggressorAddr = 0;
  std::uint32_t aggressorBit = 0;
  std::uint64_t victimAddr = 0;
  std::uint32_t victimBit = 0;
  bool invert = true;   ///< true: victim flips; false: victim copies aggressor
};

/// One backdoor action: flip stored bit `bit` of word `addr` of memory
/// `mem` (MemoryModel::flipBit, past every fault model).
struct MemFlip {
  netlist::MemoryId mem = 0;
  std::uint64_t addr = 0;
  std::uint32_t bit = 0;

  [[nodiscard]] bool operator==(const MemFlip&) const = default;
};

class MemoryModel {
 public:
  MemoryModel(std::uint32_t addrBits, std::uint32_t dataBits);

  [[nodiscard]] std::uint32_t addrBits() const noexcept { return addrBits_; }
  [[nodiscard]] std::uint32_t dataBits() const noexcept { return dataBits_; }
  [[nodiscard]] std::uint64_t words() const noexcept { return words_; }

  /// Functional write through the fault models.
  void write(std::uint64_t addr, std::uint64_t data);
  /// Functional read through the fault models.
  [[nodiscard]] std::uint64_t read(std::uint64_t addr) const;

  /// Direct backdoor access, bypassing every fault model (used by checkers
  /// and golden references).
  [[nodiscard]] std::uint64_t peek(std::uint64_t addr) const;
  void poke(std::uint64_t addr, std::uint64_t data);

  void fillAll(std::uint64_t pattern);

  // ---- fault models --------------------------------------------------------

  /// Stuck cell bit (DC fault model on data).
  void addStuckBit(std::uint64_t addr, std::uint32_t bit, bool value);
  /// Address decoder fault; `alias` is the other involved address for
  /// Wrong/Multiple kinds.
  void setAddressFault(std::uint64_t addr, AddressFaultKind kind,
                       std::uint64_t alias = 0);
  /// Dynamic cross-over between two cells.
  void addCoupling(const CouplingFault& f);
  /// Soft error: flips a stored bit immediately (change of information).
  void flipBit(std::uint64_t addr, std::uint32_t bit);

  void clearFaults();
  [[nodiscard]] bool hasFaults() const noexcept {
    return !stuck_.empty() || !addrFaults_.empty() || !coupling_.empty();
  }

  /// True when the stored contents are identical and NEITHER side has a
  /// fault model installed (an overlay can keep perturbing future accesses,
  /// so faulted memories never compare equal).  Used by the campaign
  /// engine's convergence check.
  [[nodiscard]] bool stateEquals(const MemoryModel& other) const noexcept {
    return !hasFaults() && !other.hasFaults() && cells_ == other.cells_;
  }

 private:
  [[nodiscard]] std::uint64_t applyStuck(std::uint64_t addr,
                                         std::uint64_t data) const;
  void rawWrite(std::uint64_t addr, std::uint64_t data);

  std::uint32_t addrBits_;
  std::uint32_t dataBits_;
  std::uint64_t words_;
  std::uint64_t dataMask_;
  std::vector<std::uint64_t> cells_;

  struct AddrFault {
    AddressFaultKind kind = AddressFaultKind::None;
    std::uint64_t alias = 0;
  };
  struct StuckMask {
    std::uint64_t mask = 0;   ///< which bits are stuck
    std::uint64_t value = 0;  ///< their stuck-at values
  };
  std::unordered_map<std::uint64_t, StuckMask> stuck_;
  std::unordered_map<std::uint64_t, AddrFault> addrFaults_;
  std::vector<CouplingFault> coupling_;
};

}  // namespace socfmea::sim
