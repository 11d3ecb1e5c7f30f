// Automatic sensible-zone extraction from the synthesized netlist — the
// paper's "tool [that] automatically extracts these sensible zones from the
// RTL description", here operating on the structural gate-level view:
//
//   * per-bit flip-flops are collected and compacted into register zones
//     ("besides to collect and properly compact the registers");
//   * primary inputs and outputs become zones;
//   * high-fanout nets become critical-net zones (clock/reset trees, long
//     nets that could generate multiple failures);
//   * optional hierarchy prefixes become sub-block zones (bigger cones of
//     logic considered all together);
//   * behavioural memories become memory zones.
#pragma once

#include <string>
#include <vector>

#include "zones/zone.hpp"

namespace socfmea::zones {

/// A user-declared logical entity (paper: "logical entities that can or
/// cannot directly map to a memory element.  Example: wrong conditional
/// field of a conditional instruction").  The entity's value is carried by
/// the named nets; everything converging into them is its cone.
struct LogicalEntitySpec {
  std::string name;
  std::vector<std::string> nets;  ///< net names carrying the entity's value
};

struct ExtractOptions {
  /// Compact "reg_0, reg_1, ..." flip-flops into one register zone.
  bool compactRegisters = true;
  /// Nets with at least this many readers become critical-net zones.
  /// 0 disables critical-net extraction.
  std::size_t criticalNetFanout = 32;
  /// Hierarchy prefixes ("u_fmem/dec") turned into sub-block zones.  A
  /// flip-flop inside a sub-block is owned by the sub-block zone and not
  /// emitted as a separate register zone.
  std::vector<std::string> subBlockPrefixes;
  /// User-declared logical-entity zones.
  std::vector<LogicalEntitySpec> logicalEntities;
};

/// Runs the extraction: every cone walk runs on the CSR adjacency, and the
/// returned database (indices built) is built over `cd` for downstream
/// reuse (ZoneDatabase::compiledShared()).
[[nodiscard]] ZoneDatabase extractZones(netlist::CompiledDesignPtr cd,
                                        const ExtractOptions& opt = {});

/// Compiles `nl` and runs the extraction above.
[[nodiscard]] ZoneDatabase extractZones(const netlist::Netlist& nl,
                                        const ExtractOptions& opt = {});

}  // namespace socfmea::zones
