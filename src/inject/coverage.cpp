#include "inject/coverage.hpp"

#include <algorithm>
#include <ostream>

namespace socfmea::inject {

CoverageCollector::CoverageCollector(const InjectionEnvironment& env)
    : env_(&env) {
  sensCount_.assign(env.targetZones.size(), 0);
  std::size_t maxObs = 0;
  for (zones::ObsId id : env.obsIds) {
    maxObs = std::max(maxObs, static_cast<std::size_t>(id) + 1);
  }
  obsCount_.assign(maxObs, 0);
}

void CoverageCollector::account(const InjectionObservation& obs) {
  ++injections_;
  if (obs.sens) ++sensEvents_;
  if (obs.obs) ++mismatches_;
  if (obs.diag) ++diagEvents_;
  for (zones::ZoneId z : obs.zonesDeviated) {
    const auto it = std::find(env_->targetZones.begin(),
                              env_->targetZones.end(), z);
    if (it != env_->targetZones.end()) {
      ++sensCount_[static_cast<std::size_t>(it - env_->targetZones.begin())];
    }
  }
  for (zones::ObsId p : obs.obsDeviated) {
    if (p < obsCount_.size()) ++obsCount_[p];
  }
}

double CoverageCollector::sensCoverage() const {
  if (sensCount_.empty()) return 1.0;
  const auto hit = static_cast<double>(
      std::count_if(sensCount_.begin(), sensCount_.end(),
                    [](std::uint64_t c) { return c > 0; }));
  return hit / static_cast<double>(sensCount_.size());
}

double CoverageCollector::obseCoverage() const {
  // Only observation points actually wired into the environment count.
  std::size_t items = 0;
  std::size_t hit = 0;
  for (zones::ObsId id : env_->obsIds) {
    ++items;
    if (id < obsCount_.size() && obsCount_[id] > 0) ++hit;
  }
  return items == 0 ? 1.0
                    : static_cast<double>(hit) / static_cast<double>(items);
}

double CoverageCollector::diagCoverage() const {
  if (env_->alarmNets.empty()) return 1.0;
  return diagEvents_ > 0 ? 1.0 : 0.0;
}

double CoverageCollector::completeness() const {
  // Weighted by item counts: zones + observation points + the diagnostic.
  const double zoneItems = static_cast<double>(sensCount_.size());
  const double obsItems = static_cast<double>(env_->obsIds.size());
  const double diagItems = env_->alarmNets.empty() ? 0.0 : 1.0;
  const double total = zoneItems + obsItems + diagItems;
  if (total == 0.0) return 1.0;
  return (sensCoverage() * zoneItems + obseCoverage() * obsItems +
          diagCoverage() * diagItems) /
         total;
}

std::vector<zones::ZoneId> CoverageCollector::unsensedZones() const {
  std::vector<zones::ZoneId> out;
  for (std::size_t i = 0; i < sensCount_.size(); ++i) {
    if (sensCount_[i] == 0) out.push_back(env_->targetZones[i]);
  }
  return out;
}

std::vector<zones::ObsId> CoverageCollector::silentObsPoints() const {
  std::vector<zones::ObsId> out;
  for (zones::ObsId id : env_->obsIds) {
    if (id >= obsCount_.size() || obsCount_[id] == 0) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CoverageCollector::print(std::ostream& out,
                              const zones::ZoneDatabase& db) const {
  out << "injection coverage: " << injections_ << " injections, "
      << sensEvents_ << " SENS, " << mismatches_ << " OBSE mismatches, "
      << diagEvents_ << " DIAG\n"
      << "  SENS coverage " << sensCoverage() * 100.0 << "%, OBSE coverage "
      << obseCoverage() * 100.0 << "%, DIAG coverage "
      << diagCoverage() * 100.0 << "%, completeness "
      << completeness() * 100.0 << "%\n";
  const auto unsensed = unsensedZones();
  for (std::size_t i = 0; i < unsensed.size() && i < 8; ++i) {
    out << "  never perturbed: " << db.zone(unsensed[i]).name << "\n";
  }
}

obs::Json CoverageCollector::toJson() const {
  obs::Json j = obs::Json::object();
  j["injections"] = obs::Json(injections_);
  j["sens_events"] = obs::Json(sensEvents_);
  j["obse_mismatches"] = obs::Json(mismatches_);
  j["diag_events"] = obs::Json(diagEvents_);
  j["sens_coverage"] = obs::Json(sensCoverage());
  j["obse_coverage"] = obs::Json(obseCoverage());
  j["diag_coverage"] = obs::Json(diagCoverage());
  j["completeness"] = obs::Json(completeness());
  obs::Json unsensed = obs::Json::array();
  for (zones::ZoneId z : unsensedZones()) unsensed.push_back(obs::Json(z));
  j["unsensed_zones"] = std::move(unsensed);
  obs::Json silent = obs::Json::array();
  for (zones::ObsId o : silentObsPoints()) silent.push_back(obs::Json(o));
  j["silent_obs_points"] = std::move(silent);
  return j;
}

}  // namespace socfmea::inject
