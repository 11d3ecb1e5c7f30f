// Lockstep monitors (paper, Figure 4): SENS monitors watch the injected
// sensible zone, OBSE monitors watch the observation points, DIAG monitors
// watch the diagnostic alarms.  Golden and faulty machines run the same
// recorded stimulus; every monitor compares the faulty settled values with
// the recorded golden values of the same cycle.
#pragma once

#include <vector>

#include "faultsim/stimulus.hpp"
#include "inject/env_builder.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"

namespace socfmea::inject {

/// Packed per-cycle snapshot of a net group (64 nets per word; unknown (X)
/// values are captured in a parallel mask so X==X compares equal).
struct PackedSnapshot {
  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> unknown;

  [[nodiscard]] bool operator==(const PackedSnapshot& o) const = default;
};

/// Packs the current values of `nets` from the simulator.
[[nodiscard]] PackedSnapshot packNets(const sim::Simulator& sim,
                                      const std::vector<netlist::NetId>& nets);

/// Golden reference: per-cycle snapshots of every target zone, the
/// observation nets and the alarm nets.
struct GoldenReference {
  std::uint64_t cycles = 0;
  /// zoneSnaps[t][cycle] — t indexes env.targetZones.
  std::vector<std::vector<PackedSnapshot>> zoneSnaps;
  std::vector<PackedSnapshot> obsSnaps;    ///< [cycle]
  std::vector<PackedSnapshot> alarmSnaps;  ///< [cycle]
};

/// What one injection produced, as seen by the monitors.
struct InjectionObservation {
  bool sens = false;              ///< the target zone deviated
  std::uint64_t sensCycle = 0;
  std::vector<zones::ZoneId> zonesDeviated;  ///< all deviating target zones
  bool obs = false;               ///< a functional observation point deviated
  std::uint64_t firstObsCycle = 0;
  std::vector<zones::ObsId> obsDeviated;     ///< which points deviated (union)
  bool diag = false;              ///< an alarm rose that the golden run lacked
  std::uint64_t diagCycle = 0;
};

/// Per-cycle comparator; owns nothing, writes into an InjectionObservation.
class LockstepMonitors {
 public:
  LockstepMonitors(const InjectionEnvironment& env,
                   const GoldenReference& golden);

  void begin(InjectionObservation& obs) {
    out_ = &obs;
    zoneHit_.assign(env_->targetZones.size(), false);
    obsHit_.assign(env_->obsNets.size(), false);
  }

  /// Compares the faulty machine's settled values against the golden cycle.
  void observe(const sim::Simulator& faulty, std::uint64_t cycle);

 private:
  const InjectionEnvironment* env_;
  const GoldenReference* golden_;
  InjectionObservation* out_ = nullptr;
  std::vector<bool> zoneHit_;
  std::vector<bool> obsHit_;
};

/// Records the golden reference with one fault-free replay of the recorded
/// stimulus, the one every faulty machine replays; the workload's
/// deterministic backdoor actions are re-executed per cycle.  The golden
/// Simulator shares the campaign's compiled design.
[[nodiscard]] GoldenReference recordGoldenReference(
    netlist::CompiledDesignPtr cd, const InjectionEnvironment& env,
    sim::Workload& wl, const faultsim::StimulusTrace& stim);

}  // namespace socfmea::inject
