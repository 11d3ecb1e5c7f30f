// Compiled design IR: a flattened, cache-friendly structure-of-arrays form
// of a checked Netlist, built once and shared read-only by every evaluation
// layer — the simulator's settle loop, the zone extractor's cone walks and
// all fault-campaign engines.  The pointer- and string-heavy Netlist stays
// the construction/reporting substrate; CompiledDesign is what the hot
// loops index:
//
//   * combinational cells in levelized order with dense per-level ranges,
//   * CSR (offset + flat array) fanout and fanin adjacency,
//   * per-net source descriptors (comb gate / input / flip-flop / memory),
//   * input / output / flip-flop / memory-write-port index tables,
//   * stable mapping back to NetId / CellId for reporting.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace socfmea::netlist {

/// What drives a net during the combinational phase of a cycle.
enum class NetSourceKind : std::uint8_t {
  None,    ///< undriven (only possible before Netlist::check())
  Comb,    ///< output of a combinational cell (consts included, level 0)
  Input,   ///< primary input port
  Ff,      ///< flip-flop Q
  Memory,  ///< registered memory read-data bit
};

/// Driver descriptor of one net.
struct NetSource {
  NetSourceKind kind = NetSourceKind::None;
  std::uint32_t id = 0;   ///< CellId (Comb/Input/Ff) or MemoryId (Memory)
  std::uint32_t bit = 0;  ///< rdata bit index (Memory only)
};

class CompiledDesign {
 public:
  /// Sentinel order position for cells outside the combinational core.
  static constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

  /// Runs Netlist::check() and compiles the netlist: throws NetlistError on
  /// an undriven net, an unconnected required pin or a combinational cycle,
  /// so every compiled design simulates two-state (sim/logic4.hpp).
  explicit CompiledDesign(const Netlist& nl);

  [[nodiscard]] const Netlist& design() const noexcept { return *nl_; }
  [[nodiscard]] std::size_t netCount() const noexcept {
    return netSource_.size();
  }
  [[nodiscard]] std::size_t cellCount() const noexcept {
    return cellType_.size();
  }

  // ---- levelized combinational core (SoA, indexed by order position) -------

  [[nodiscard]] std::uint32_t combCount() const noexcept {
    return static_cast<std::uint32_t>(combCell_.size());
  }
  /// Number of logic levels (maxLevel + 1; 0 for a design with no gates).
  [[nodiscard]] std::uint32_t levelCount() const noexcept {
    return static_cast<std::uint32_t>(levelOffset_.empty()
                                          ? 0
                                          : levelOffset_.size() - 1);
  }
  /// Order positions of level `l` are [levelBegin(l), levelEnd(l)).
  [[nodiscard]] std::uint32_t levelBegin(std::uint32_t l) const {
    return levelOffset_.at(l);
  }
  [[nodiscard]] std::uint32_t levelEnd(std::uint32_t l) const {
    return levelOffset_.at(l + 1);
  }

  [[nodiscard]] CellId combCell(std::uint32_t pos) const {
    return combCell_.at(pos);
  }
  [[nodiscard]] CellType combType(std::uint32_t pos) const {
    return cellType_[combCell_.at(pos)];
  }
  [[nodiscard]] NetId combOutput(std::uint32_t pos) const {
    return cellOutput_[combCell_.at(pos)];
  }
  [[nodiscard]] std::uint32_t combLevel(std::uint32_t pos) const {
    return combLevel_.at(pos);
  }
  /// Input nets of the cell at `pos` (Dff-style kNoNet pins never occur in
  /// the combinational core).
  [[nodiscard]] std::span<const NetId> combInputs(std::uint32_t pos) const {
    return fanin(combCell_.at(pos));
  }
  /// Order position of a combinational cell; kNoPos for ports / flip-flops.
  [[nodiscard]] std::uint32_t posOfCell(CellId c) const {
    return posOfCell_.at(c);
  }

  // ---- per-cell SoA mirrors (indexed by CellId) ----------------------------

  [[nodiscard]] CellType cellType(CellId c) const { return cellType_.at(c); }
  [[nodiscard]] NetId cellOutput(CellId c) const { return cellOutput_.at(c); }

  // ---- CSR adjacency -------------------------------------------------------

  /// Cells reading this net, one entry per connected pin (same contents and
  /// order as Net::fanout).
  [[nodiscard]] std::span<const CellId> fanout(NetId n) const {
    return {fanoutCells_.data() + fanoutOffset_.at(n),
            fanoutCells_.data() + fanoutOffset_[n + 1]};
  }
  [[nodiscard]] std::size_t fanoutCount(NetId n) const {
    return fanoutOffset_.at(n + 1) - fanoutOffset_[n];
  }
  /// Connected input nets of a cell (kNoNet pins are skipped).
  [[nodiscard]] std::span<const NetId> fanin(CellId c) const {
    return {faninNets_.data() + faninOffset_.at(c),
            faninNets_.data() + faninOffset_[c + 1]};
  }

  // ---- net sources ---------------------------------------------------------

  [[nodiscard]] const NetSource& netSource(NetId n) const {
    return netSource_.at(n);
  }

  // ---- index tables --------------------------------------------------------

  /// Input / Output / Dff cells in creation (CellId) order — identical to
  /// Netlist::primaryInputs() / primaryOutputs() / flipFlops().
  [[nodiscard]] const std::vector<CellId>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<CellId>& outputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] const std::vector<CellId>& ffs() const noexcept { return ffs_; }

  // Flip-flop pin SoA, indexed by position in ffs().
  [[nodiscard]] NetId ffD(std::size_t i) const { return ffD_.at(i); }
  [[nodiscard]] NetId ffEn(std::size_t i) const { return ffEn_.at(i); }
  [[nodiscard]] NetId ffRst(std::size_t i) const { return ffRst_.at(i); }
  [[nodiscard]] bool ffInit(std::size_t i) const { return ffInit_.at(i) != 0; }
  [[nodiscard]] NetId ffOutput(std::size_t i) const {
    return cellOutput_[ffs_.at(i)];
  }

  /// Memories whose write-side pins (addr / wdata / we / re) this net feeds
  /// (CSR; each memory listed once per connected pin, MemoryId ascending,
  /// addr then wdata then we then re — the order forwardReach() visits).
  [[nodiscard]] std::span<const MemoryId> memWriteSinks(NetId n) const {
    return {memSinkIds_.data() + memSinkOffset_.at(n),
            memSinkIds_.data() + memSinkOffset_[n + 1]};
  }

  // ---- stats (telemetry) ---------------------------------------------------

  struct Stats {
    std::uint32_t levels = 0;         ///< logic depth (level count)
    std::uint32_t maxLevelWidth = 0;  ///< widest level (cells)
    std::uint64_t combCells = 0;
    std::uint64_t fanoutEdges = 0;    ///< CSR fanout entries (net->pin edges)
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  const Netlist* nl_;

  // Combinational core, bucketed by level (CellId ascending within a level).
  std::vector<CellId> combCell_;          // by order position
  std::vector<std::uint32_t> combLevel_;  // by order position
  std::vector<std::uint32_t> levelOffset_;  // levelCount()+1 entries
  std::vector<std::uint32_t> posOfCell_;  // by CellId; kNoPos for non-comb

  // Per-cell mirrors.
  std::vector<CellType> cellType_;   // by CellId
  std::vector<NetId> cellOutput_;    // by CellId (kNoNet for Output cells)

  // CSR adjacency.
  std::vector<std::uint32_t> fanoutOffset_;  // netCount()+1
  std::vector<CellId> fanoutCells_;
  std::vector<std::uint32_t> faninOffset_;   // cellCount()+1
  std::vector<NetId> faninNets_;

  std::vector<NetSource> netSource_;  // by NetId

  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  std::vector<CellId> ffs_;
  std::vector<NetId> ffD_;
  std::vector<NetId> ffEn_;
  std::vector<NetId> ffRst_;
  std::vector<std::uint8_t> ffInit_;

  std::vector<std::uint32_t> memSinkOffset_;  // netCount()+1
  std::vector<MemoryId> memSinkIds_;
};

/// Shared ownership handle: one campaign compiles once, every engine and
/// worker holds the same immutable compiled form.
using CompiledDesignPtr = std::shared_ptr<const CompiledDesign>;

/// Checks and compiles `nl` into a shared immutable CompiledDesign; throws
/// NetlistError where Netlist::check() does.
[[nodiscard]] CompiledDesignPtr compile(const Netlist& nl);

}  // namespace socfmea::netlist
