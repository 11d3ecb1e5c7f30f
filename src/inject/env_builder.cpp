#include "inject/env_builder.hpp"

#include <algorithm>

#include "fault/collapse.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::inject {

using zones::ZoneId;

InjectionEnvironment EnvironmentBuilder::build() const {
  InjectionEnvironment env;
  env.zones = db_;
  env.effects = effects_;
  env.detectionWindow = window_;

  for (const zones::SensibleZone& z : db_->zones()) {
    if (z.kind == zones::ZoneKind::Register ||
        z.kind == zones::ZoneKind::SubBlock ||
        z.kind == zones::ZoneKind::Memory) {
      env.targetZones.push_back(z.id);
    }
  }

  for (const zones::ObservationPoint& p : effects_->points()) {
    if (p.kind == zones::ObsKind::Alarm) {
      for (netlist::NetId n : p.nets) env.alarmNets.push_back(n);
    } else if (p.kind == zones::ObsKind::PrimaryOutput) {
      for (netlist::NetId n : p.nets) {
        env.obsNets.push_back(n);
        env.obsIds.push_back(p.id);
      }
    }
  }
  return env;
}

std::vector<ZoneId> ownerZones(const zones::ZoneDatabase& db,
                               const fault::Fault& f) {
  using fault::FaultKind;
  std::vector<ZoneId> out;
  const auto& nl = db.design();
  const auto addCellOwners = [&](netlist::CellId cell) {
    if (cell == netlist::kNoCell) return;
    const auto& c = nl.cell(cell);
    if (c.type == netlist::CellType::Dff) {
      const ZoneId z = db.zoneOfFf(cell);
      if (z != zones::kNoZone) out.push_back(z);
      return;
    }
    if (netlist::isCombinational(c.type)) {
      for (ZoneId z : db.zonesOfCell(cell)) out.push_back(z);
    }
  };
  switch (f.kind) {
    case FaultKind::SeuFlip:
    case FaultKind::DelayStale:
      addCellOwners(f.cell);
      break;
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::SetPulse:
      addCellOwners(f.cell != netlist::kNoCell ? f.cell : nl.net(f.net).driver);
      break;
    case FaultKind::BridgeAnd:
    case FaultKind::BridgeOr:
      addCellOwners(nl.net(f.net).driver);
      addCellOwners(nl.net(f.net2).driver);
      break;
    case FaultKind::MultiSeu:
      for (const netlist::CellId c : f.cells) addCellOwners(c);
      break;
    default: {  // memory faults
      for (const zones::SensibleZone& z : db.zones()) {
        if (z.kind == zones::ZoneKind::Memory && z.mem == f.mem) {
          out.push_back(z.id);
        }
      }
      break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ZoneId targetZoneOf(const zones::ZoneDatabase& db, const fault::Fault& f) {
  const auto owners = ownerZones(db, f);
  return owners.empty() ? zones::kNoZone : owners.front();
}

std::size_t collapseAgainstProfile(const zones::ZoneDatabase& db,
                                   const OperationalProfile& profile,
                                   fault::FaultList& faults) {
  fault::collapseStuckAt(db.design(), faults);
  const std::size_t before = faults.size();
  std::erase_if(faults, [&](const fault::Fault& f) {
    const auto owners = ownerZones(db, f);
    if (owners.empty()) return true;  // feeds no zone: cannot produce an error
    return std::none_of(owners.begin(), owners.end(), [&](ZoneId z) {
      return profile.zone(z).triggered();
    });
  });
  obs::Registry::global().add("inject.profile_dropped", before - faults.size());
  return before - faults.size();
}

fault::FaultList randomizeFaultList(const zones::ZoneDatabase& db,
                                    const OperationalProfile& profile,
                                    const fault::FaultList& candidates,
                                    std::size_t maxFaults,
                                    std::uint64_t seed) {
  sim::Rng rng(seed);
  fault::FaultList pool = candidates;
  fault::FaultList out;
  out.reserve(std::min(maxFaults, pool.size()));
  while (!pool.empty() && out.size() < maxFaults) {
    const std::size_t pick = rng.below(pool.size());
    fault::Fault f = pool[pick];
    pool[pick] = pool.back();
    pool.pop_back();
    if (f.transient()) {
      // Draw the injection cycle from the target zone's live cycles so the
      // fault can actually perturb the function.
      const ZoneId z = targetZoneOf(db, f);
      const auto* act = (z != zones::kNoZone) ? &profile.zone(z) : nullptr;
      if (act != nullptr && !act->activeCycles.empty()) {
        f.cycle = act->activeCycles[rng.below(act->activeCycles.size())];
      } else if (profile.totalCycles() > 0) {
        f.cycle = rng.below(profile.totalCycles());
      }
    }
    out.push_back(f);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace socfmea::inject
