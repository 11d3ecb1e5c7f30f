#include "inject/profile.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <stdexcept>

namespace socfmea::inject {

namespace {

/// Cap of ZoneActivity::activeCycles.
constexpr std::size_t kMaxActiveCyclesPerZone = 512;

}  // namespace

OperationalProfile OperationalProfile::record(
    const zones::ZoneDatabase& db, const faultsim::GoldenRun& golden) {
  if (golden.compiled() != db.compiledShared()) {
    throw std::invalid_argument(
        "OperationalProfile::record: the golden run is of another design");
  }
  OperationalProfile p;
  p.activity_.assign(db.size(), {});
  const std::uint64_t cycles = golden.cycles();
  p.cycles_ = cycles;

  std::vector<std::uint64_t> lastChange(db.size(), 0);
  std::vector<std::uint64_t> holdSum(db.size(), 0);
  std::vector<std::uint64_t> holdCount(db.size(), 0);

  // A net changes in cycle c when row c reads differently from row c - 1.
  // Row 0 is initialization: it follows nothing.
  std::vector<std::uint64_t> change(golden.rowWords());
  for (std::uint64_t c = 1; c < cycles; ++c) {
    const std::span<const std::uint64_t> prev = golden.row(c - 1).words;
    const std::span<const std::uint64_t> cur = golden.row(c).words;
    for (std::size_t w = 0; w < change.size(); ++w) {
      change[w] = prev[w] ^ cur[w];
    }
    const faultsim::NetBits changed{change};
    for (const zones::SensibleZone& z : db.zones()) {
      if (std::none_of(z.valueNets.begin(), z.valueNets.end(),
                       [&](netlist::NetId n) { return changed[n]; })) {
        continue;
      }
      ZoneActivity& a = p.activity_[z.id];
      if (a.writes != 0) {
        holdSum[z.id] += c - lastChange[z.id];
        ++holdCount[z.id];
      }
      lastChange[z.id] = c;
      ++a.writes;
      if (a.activeCycles.size() < kMaxActiveCyclesPerZone) {
        a.activeCycles.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }

  for (zones::ZoneId z = 0; z < p.activity_.size(); ++z) {
    ZoneActivity& a = p.activity_[z];
    a.activeFraction =
        cycles == 0 ? 0.0
                    : static_cast<double>(a.writes) / static_cast<double>(cycles);
    a.avgHoldCycles = holdCount[z] == 0
                          ? static_cast<double>(cycles)
                          : static_cast<double>(holdSum[z]) /
                                static_cast<double>(holdCount[z]);
  }
  return p;
}

std::vector<zones::ZoneId> OperationalProfile::untriggeredZones() const {
  std::vector<zones::ZoneId> out;
  for (zones::ZoneId z = 0; z < activity_.size(); ++z) {
    if (!activity_[z].triggered()) out.push_back(z);
  }
  return out;
}

double OperationalProfile::completeness() const {
  if (activity_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const ZoneActivity& a : activity_) {
    if (a.triggered()) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(activity_.size());
}

fmea::FreqClass OperationalProfile::freqClassOf(zones::ZoneId z) const {
  const double f = activity_.at(z).activeFraction;
  if (f >= 0.70) return fmea::FreqClass::Continuous;
  if (f >= 0.30) return fmea::FreqClass::High;
  if (f >= 0.08) return fmea::FreqClass::Medium;
  if (f > 0.0) return fmea::FreqClass::Low;
  return fmea::FreqClass::VeryLow;
}

double OperationalProfile::lifetimeFractionOf(zones::ZoneId z) const {
  const ZoneActivity& a = activity_.at(z);
  if (a.writes == 0 || cycles_ == 0) return 1.0;
  const double period =
      static_cast<double>(cycles_) / static_cast<double>(a.writes);
  if (period <= 0.0) return 1.0;
  return std::min(1.0, a.avgHoldCycles / period);
}

void OperationalProfile::print(std::ostream& out,
                               const zones::ZoneDatabase& db,
                               std::size_t maxZones) const {
  out << "operational profile over " << cycles_ << " cycles, completeness "
      << completeness() * 100.0 << "%\n";
  std::size_t shown = 0;
  for (const zones::SensibleZone& z : db.zones()) {
    if (shown++ >= maxZones) {
      out << "  ... (" << db.size() - maxZones << " more zones)\n";
      break;
    }
    const ZoneActivity& a = activity_[z.id];
    out << "  " << z.name << ": writes " << a.writes << ", active "
        << a.activeFraction * 100.0 << "%, hold " << a.avgHoldCycles
        << " cycles\n";
  }
}

}  // namespace socfmea::inject
