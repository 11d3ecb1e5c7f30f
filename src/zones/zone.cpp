#include "zones/zone.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace socfmea::zones {

std::string_view zoneKindName(ZoneKind k) noexcept {
  switch (k) {
    case ZoneKind::Register: return "register";
    case ZoneKind::PrimaryInput: return "primary-input";
    case ZoneKind::PrimaryOutput: return "primary-output";
    case ZoneKind::CriticalNet: return "critical-net";
    case ZoneKind::SubBlock: return "sub-block";
    case ZoneKind::Memory: return "memory";
    case ZoneKind::LogicalEntity: return "logical-entity";
  }
  return "?";
}

ZoneDatabase::ZoneDatabase(netlist::CompiledDesignPtr cd)
    : cd_(std::move(cd)) {}

std::optional<ZoneId> ZoneDatabase::findZone(std::string_view name) const {
  for (const SensibleZone& z : zones_) {
    if (z.name == name) return z.id;
  }
  return std::nullopt;
}

ZoneId ZoneDatabase::addZone(SensibleZone z) {
  z.id = static_cast<ZoneId>(zones_.size());
  z.stats.gateCount = z.cone.gates.size();
  z.stats.netCount = z.cone.nets.size();
  z.stats.supportFfs = z.cone.supportFfs.size();
  z.stats.supportPis = z.cone.supportPis.size();
  z.stats.supportMems = z.cone.supportMems.size();
  zones_.push_back(std::move(z));
  return zones_.back().id;
}

void ZoneDatabase::buildIndices() {
  coneMembership_.assign(cd_->cellCount(), {});
  ffOwner_.assign(cd_->cellCount(), kNoZone);
  for (const SensibleZone& z : zones_) {
    for (netlist::CellId g : z.cone.gates) {
      auto& v = coneMembership_[g];
      if (v.empty() || v.back() != z.id) v.push_back(z.id);
    }
    for (netlist::CellId ff : z.ffs) {
      if (ffOwner_[ff] == kNoZone) ffOwner_[ff] = z.id;
    }
  }
}

const std::vector<ZoneId>& ZoneDatabase::zonesOfCell(netlist::CellId c) const {
  if (coneMembership_.empty()) {
    throw std::logic_error("ZoneDatabase::buildIndices() not called");
  }
  return coneMembership_.at(c);
}

ZoneId ZoneDatabase::zoneOfFf(netlist::CellId ff) const {
  if (ffOwner_.empty()) {
    throw std::logic_error("ZoneDatabase::buildIndices() not called");
  }
  return ffOwner_.at(ff);
}

FaultScope ZoneDatabase::classifySite(netlist::CellId c,
                                      double globalFraction) const {
  const auto& owners = zonesOfCell(c);
  if (owners.empty()) return FaultScope::Unassigned;
  if (owners.size() == 1) return FaultScope::Local;
  const double frac = static_cast<double>(owners.size()) /
                      static_cast<double>(std::max<std::size_t>(zones_.size(), 1));
  return frac >= globalFraction ? FaultScope::Global : FaultScope::Wide;
}

ZoneDatabase::ScopeCensus ZoneDatabase::census(double globalFraction) const {
  ScopeCensus out;
  for (netlist::CellId c = 0; c < cd_->cellCount(); ++c) {
    if (!netlist::isCombinational(cd_->cellType(c))) continue;
    switch (classifySite(c, globalFraction)) {
      case FaultScope::Local: ++out.local; break;
      case FaultScope::Wide: ++out.wide; break;
      case FaultScope::Global: ++out.global; break;
      case FaultScope::Unassigned: ++out.unassigned; break;
    }
  }
  return out;
}

obs::Json toJson(const ZoneDatabase& db) {
  obs::Json j = obs::Json::object();
  j["count"] = obs::Json(db.size());

  obs::Json& byKind = j["by_kind"];
  byKind = obs::Json::object();
  std::size_t kindCount[7] = {};
  for (const SensibleZone& z : db.zones()) {
    ++kindCount[static_cast<std::size_t>(z.kind)];
  }
  for (std::size_t k = 0; k < 7; ++k) {
    if (kindCount[k] == 0) continue;
    byKind[zoneKindName(static_cast<ZoneKind>(k))] = obs::Json(kindCount[k]);
  }

  const ZoneDatabase::ScopeCensus census = db.census();
  obs::Json c = obs::Json::object();
  c["local"] = obs::Json(census.local);
  c["wide"] = obs::Json(census.wide);
  c["global"] = obs::Json(census.global);
  c["unassigned"] = obs::Json(census.unassigned);
  j["fault_site_census"] = std::move(c);

  obs::Json& table = j["table"];
  table = obs::Json::array();
  for (const SensibleZone& z : db.zones()) {
    obs::Json row = obs::Json::object();
    row["zone"] = obs::Json(z.id);
    row["name"] = obs::Json(z.name);
    row["kind"] = obs::Json(zoneKindName(z.kind));
    row["width"] = obs::Json(z.width());
    row["ffs"] = obs::Json(z.ffs.size());
    obs::Json cone = obs::Json::object();
    cone["gates"] = obs::Json(z.stats.gateCount);
    cone["nets"] = obs::Json(z.stats.netCount);
    cone["support_ffs"] = obs::Json(z.stats.supportFfs);
    cone["support_pis"] = obs::Json(z.stats.supportPis);
    cone["support_mems"] = obs::Json(z.stats.supportMems);
    row["cone"] = std::move(cone);
    table.push_back(std::move(row));
  }
  return j;
}

}  // namespace socfmea::zones
