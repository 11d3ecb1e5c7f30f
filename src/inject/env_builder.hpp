// Environment Builder (paper, Figure 4): "this block extracts from the FMEA
// all the information related to the environment for the injection campaign
// and builds all the required environment configuration files" — here, an
// InjectionEnvironment value: target zones, observation and alarm nets, and
// the detection window.
//
// It also hosts the Collapser and Randomiser: starting from the operational
// profile, the candidate fault list is reduced to faults that can actually
// produce an error (zone active), and transient injection cycles are drawn
// from the zone's live cycles.
#pragma once

#include <vector>

#include "fault/fault_list.hpp"
#include "fmea/sheet.hpp"
#include "inject/profile.hpp"
#include "zones/effects.hpp"

namespace socfmea::inject {

struct InjectionEnvironment {
  const zones::ZoneDatabase* zones = nullptr;
  const zones::EffectsModel* effects = nullptr;

  std::vector<zones::ZoneId> targetZones;   ///< zones under injection
  std::vector<netlist::NetId> obsNets;      ///< functional observation nets
  std::vector<zones::ObsId> obsIds;         ///< matching observation points
  std::vector<netlist::NetId> alarmNets;    ///< diagnostic alarm nets
  std::uint64_t detectionWindow = 16;       ///< cycles for DIAG to fire after
                                            ///< the first functional deviation
};

class EnvironmentBuilder {
 public:
  EnvironmentBuilder(const zones::ZoneDatabase& db,
                     const zones::EffectsModel& effects)
      : db_(&db), effects_(&effects) {}

  EnvironmentBuilder& withDetectionWindow(std::uint64_t w) {
    window_ = w;
    return *this;
  }

  [[nodiscard]] InjectionEnvironment build() const;

 private:
  const zones::ZoneDatabase* db_;
  const zones::EffectsModel* effects_;
  std::uint64_t window_ = 16;
};

/// Sensible zones a fault converges into: the FF's owner zone for SEU/delay
/// faults, the cone owners of the site cell for stuck-at/SET/bridging, the
/// memory zone for memory faults.
[[nodiscard]] std::vector<zones::ZoneId> ownerZones(
    const zones::ZoneDatabase& db, const fault::Fault& f);

/// The primary (first) owner zone, or kNoZone.
[[nodiscard]] zones::ZoneId targetZoneOf(const zones::ZoneDatabase& db,
                                         const fault::Fault& f);

/// Collapser: drops faults whose target zone never becomes active under the
/// workload (they cannot produce an error) and collapses structurally
/// equivalent stuck-at faults.  Returns the number of dropped faults.
std::size_t collapseAgainstProfile(const zones::ZoneDatabase& db,
                                   const OperationalProfile& profile,
                                   fault::FaultList& faults);

/// Randomiser: samples up to `maxFaults` faults and assigns every transient
/// fault an injection cycle drawn from its zone's live cycles (falling back
/// to a uniform cycle when the zone has no recorded activity).
[[nodiscard]] fault::FaultList randomizeFaultList(
    const zones::ZoneDatabase& db, const OperationalProfile& profile,
    const fault::FaultList& candidates, std::size_t maxFaults,
    std::uint64_t seed);

}  // namespace socfmea::inject
