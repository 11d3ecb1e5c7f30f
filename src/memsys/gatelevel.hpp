// Gate-level (synthesized-view) generator for the Figure-5 protection IP:
// MCE bus-interface registers, distributed MPU, write buffer, SEC-DED
// encoder, memory macro, two-stage pipelined decoder with the v2 checkers,
// output/alarm registers, and a BIST engine (whose control logic the paper's
// FMEA ranked among the most critical zones).
//
// This netlist is what the sensible-zone extractor, the FMEA sheet and the
// fault-injection campaigns operate on — the stand-in for the RTL the
// paper's tool reads from a synthesis flow.
#pragma once

#include <string_view>

#include "netlist/builder.hpp"

namespace socfmea::memsys {

struct GateLevelOptions {
  /// 1024 words: the array carries the bulk of the FIT budget, as in a real
  /// memory sub-system (the logic zones are the SFF *residual*).
  std::uint32_t addrBits = 10;
  bool addressInCode = false;
  bool wbufParity = false;
  bool postCoderChecker = false;
  bool redundantChecker = false;
  bool distributedSyndrome = false;
  bool monitoredOutputs = false;  ///< duplicate output register + comparator
  bool includeBist = true;

  [[nodiscard]] static GateLevelOptions v1() { return {}; }
  [[nodiscard]] static GateLevelOptions v2() {
    GateLevelOptions o;
    o.addressInCode = true;
    o.wbufParity = true;
    o.postCoderChecker = true;
    o.redundantChecker = true;
    o.distributedSyndrome = true;
    o.monitoredOutputs = true;
    return o;
  }
};

/// The generated design plus the port handles workloads need.
struct GateLevelDesign {
  netlist::Netlist nl;
  GateLevelOptions options;

  // Primary-input nets.
  netlist::NetId rst = netlist::kNoNet;
  netlist::NetId req = netlist::kNoNet;
  netlist::NetId we = netlist::kNoNet;
  netlist::NetId priv = netlist::kNoNet;
  netlist::NetId bistEn = netlist::kNoNet;
  /// Latent-fault self-test strobe: inverts one leg of every checker
  /// comparator so the alarm paths can be proven alive (and toggled) in a
  /// fault-free run.  Only an input when the design has checkers.
  netlist::NetId chkTest = netlist::kNoNet;
  netlist::Bus addr;
  netlist::Bus wdata;

  /// Substrings identifying alarm outputs (for zones::EffectsModel).
  std::vector<std::string> alarmNames;
  /// Hierarchy prefixes suitable as sub-block zones.
  std::vector<std::string> blockPrefixes;
};

/// Builds the protection IP.  The netlist passes check().
[[nodiscard]] GateLevelDesign buildProtectionIp(const GateLevelOptions& opt);

/// Applies one Section-6 architectural measure, by name, to `o` ("none",
/// "wbuf-parity", "post-coder", "redundant-checker", "addr-in-code", "v2");
/// false on an unknown name.
[[nodiscard]] bool applyProtectionEdit(std::string_view edit,
                                       GateLevelOptions& o);

}  // namespace socfmea::memsys
