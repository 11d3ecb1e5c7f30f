// Sensible zones (paper, Section 3): the elementary failure points of the
// SoC in which one or more faults converge to lead to a failure.  Valid
// zones are memory elements (registers, compacted from per-bit flip-flops),
// primary inputs/outputs, critical nets (clocks / long nets), entire
// sub-blocks, and behavioural memories.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/traversal.hpp"
#include "obs/json.hpp"

namespace socfmea::zones {

using ZoneId = std::uint32_t;
inline constexpr ZoneId kNoZone = 0xFFFFFFFFu;

enum class ZoneKind : std::uint8_t {
  Register,      ///< compacted bank of flip-flops (the "best candidates")
  PrimaryInput,  ///< SoC primary input
  PrimaryOutput, ///< SoC primary output
  CriticalNet,   ///< high-fanout net (clock-tree-like, long net)
  SubBlock,      ///< whole hierarchical block considered as one zone
  Memory,        ///< behavioural memory macro
  LogicalEntity, ///< user-declared entity that may not map to a memory
                 ///< element (paper: "wrong conditional field of a
                 ///< conditional instruction")
};

[[nodiscard]] std::string_view zoneKindName(ZoneKind k) noexcept;

/// Statistics of the converging logic cone, feeding the FMEA statistical
/// model (gate count, interconnections, support).
struct ConeStats {
  std::size_t gateCount = 0;
  std::size_t netCount = 0;
  std::size_t supportFfs = 0;   ///< flip-flops on the cone boundary
  std::size_t supportPis = 0;   ///< primary inputs on the boundary
  std::size_t supportMems = 0;  ///< memories feeding the cone
};

/// Locality class of a physical HW fault site (paper, Section 3):
/// local = contributes to exactly one sensible zone, wide = to several,
/// global = to a large fraction of all zones (clock roots, power, thermal).
enum class FaultScope : std::uint8_t { Local, Wide, Global, Unassigned };

struct SensibleZone {
  ZoneId id = kNoZone;
  ZoneKind kind = ZoneKind::Register;
  std::string name;

  std::vector<netlist::CellId> ffs;       ///< member flip-flops (Register/SubBlock)
  std::vector<netlist::NetId> valueNets;  ///< nets carrying the zone's value
  std::vector<netlist::NetId> coneRoots;  ///< roots of the converging cone
  netlist::Cone cone;                     ///< the converging logic cone
  ConeStats stats;
  netlist::MemoryId mem = netlist::kNoMemory;  ///< for Memory zones

  [[nodiscard]] std::size_t width() const noexcept {
    return valueNets.size();
  }
};

/// The extracted zone set plus cone-membership indices, over one compiled
/// design that downstream layers (effects model, injection manager) share
/// instead of re-compiling.
class ZoneDatabase {
 public:
  explicit ZoneDatabase(netlist::CompiledDesignPtr cd);

  [[nodiscard]] const netlist::Netlist& design() const noexcept {
    return cd_->design();
  }
  [[nodiscard]] const netlist::CompiledDesignPtr& compiledShared()
      const noexcept {
    return cd_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return zones_.size(); }
  [[nodiscard]] const SensibleZone& zone(ZoneId id) const { return zones_.at(id); }
  [[nodiscard]] const std::vector<SensibleZone>& zones() const noexcept {
    return zones_;
  }
  [[nodiscard]] std::optional<ZoneId> findZone(std::string_view name) const;

  /// Zones whose converging cone contains this combinational cell.
  [[nodiscard]] const std::vector<ZoneId>& zonesOfCell(netlist::CellId c) const;

  /// Zone owning this flip-flop (its state bit), if any.
  [[nodiscard]] ZoneId zoneOfFf(netlist::CellId ff) const;

  /// Locality classification of a fault at cell `c`'s output.
  /// `globalFraction`: a site feeding at least this fraction of all zones is
  /// Global.
  [[nodiscard]] FaultScope classifySite(netlist::CellId c,
                                        double globalFraction = 0.5) const;

  /// Count of fault sites per scope over all combinational cells.
  struct ScopeCensus {
    std::size_t local = 0;
    std::size_t wide = 0;
    std::size_t global = 0;
    std::size_t unassigned = 0;  ///< cells feeding no zone (dead logic)
  };
  [[nodiscard]] ScopeCensus census(double globalFraction = 0.5) const;

  // Used by the extractor.
  ZoneId addZone(SensibleZone z);
  void buildIndices();

 private:
  netlist::CompiledDesignPtr cd_;
  std::vector<SensibleZone> zones_;
  std::vector<std::vector<ZoneId>> coneMembership_;  // by CellId
  std::vector<ZoneId> ffOwner_;                      // by CellId
};

/// Structured export of the zone inventory: per-zone identity, kind, width
/// and cone statistics, plus the by-kind histogram and the fault-site
/// census — the "zone table" section of the machine-readable safety report.
[[nodiscard]] obs::Json toJson(const ZoneDatabase& db);

}  // namespace socfmea::zones
