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

#include "memsys/gatelevel.hpp"
#include "memsys/subsystem.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace socfmea::memsys {

class ProtectionIpWorkload final : public sim::Workload {
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

  ProtectionIpWorkload(const GateLevelDesign& design, Options opt);

  [[nodiscard]] std::uint64_t cycles() const override { return opt_.cycles; }
  void drive(sim::Simulator& sim, std::uint64_t cycle) const override;
  void backdoor(std::uint64_t cycle,
                std::vector<sim::MemFlip>& flips) const override;

 private:
  /// One precomputed cycle of stimulus: the whole run is planned at
  /// construction, so drive() and backdoor() are pure functions of the
  /// cycle.
  struct CyclePlan {
    bool rst = false;
    bool bist = false;
    bool chk = false;  ///< latent-fault self-test strobe
    bool req = false;
    bool we = false;
    bool priv = true;
    std::uint64_t addr = 0;
    std::uint32_t data = 0;
    std::uint64_t flipMask = 0;  ///< memory code bits to flip (over 39 bits)
    std::uint64_t flipAddr = 0;
  };

  void buildPlan();

  const GateLevelDesign* d_;
  Options opt_;
  std::vector<CyclePlan> plan_;
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
