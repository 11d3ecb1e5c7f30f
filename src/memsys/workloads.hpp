// Workloads for the memory sub-system.
//
// ProtectionIpWorkload drives the gate-level protection IP (reset, a BIST
// window, then paced random read/write traffic with MPU-violation probes) —
// the injection campaigns' testbench, playing the role of the reusable
// verification components the paper runs as workload.
//
// BehavioralTraffic drives the behavioural MemSubsystem over the AHB model
// for the functional Figure-5 bench.
#pragma once

#include <vector>

#include "faultsim/stimulus.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/subsystem.hpp"

namespace socfmea::memsys {

class ProtectionIpWorkload final : public faultsim::StimulusTrace {
 public:
  struct Options {
    std::uint64_t cycles = 2000;
    std::uint64_t seed = 42;
    /// Plant memory soft errors (single and double bit, rotating over all
    /// 39 code-bit positions) right before reads, so the correction,
    /// classification and checker logic is exercised — the toggle-closure
    /// role of an error-injecting verification component.
    bool plantEccErrors = true;
  };

  /// Writes the whole run's stimulus and backdoor flips over `design`'s
  /// primary inputs.
  ProtectionIpWorkload(const GateLevelDesign& design, Options opt);
};

/// Mixed multi-master traffic over the behavioural sub-system.
struct TrafficStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t readMismatches = 0;  ///< read data != shadow model
  std::uint64_t mpuDenials = 0;
  std::uint64_t cycles = 0;
};

[[nodiscard]] TrafficStats runBehavioralTraffic(MemSubsystem& sys,
                                                std::uint64_t operations,
                                                std::uint64_t seed);

}  // namespace socfmea::memsys
