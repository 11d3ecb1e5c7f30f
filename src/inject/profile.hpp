// Operational Profiler (paper, Section 5): "a collection of information
// about all relevant fault-free system activities ... The purpose of the OP
// is to better understand the situation in which the system or the
// application will be used, and then analyze this information to ensure
// that only faults which will produce an error are selected during the
// fault list generation process."
//
// The profiler reads the workload's golden run (faultsim::GoldenRun) and
// records, per sensible zone, when its stored value changes (write
// activity), how long values are held (the measured lifetime ζ) and which
// cycles the zone is live — the data the Collapser and Randomiser use to
// build compact, non-trivial fault lists, and the data that measures
// workload completeness ("it is measured in a deterministic way to check if
// it [is] complete in terms of its capability to trigger all the sensible
// zones of the DUT").
#pragma once

#include <iosfwd>
#include <vector>

#include "faultsim/golden_run.hpp"
#include "fmea/sheet.hpp"
#include "zones/zone.hpp"

namespace socfmea::inject {

struct ZoneActivity {
  std::uint64_t writes = 0;        ///< capture events that changed the value
  double activeFraction = 0.0;     ///< changing cycles / total cycles
  double avgHoldCycles = 0.0;      ///< mean cycles a value is held (ζ estimate)
  std::vector<std::uint32_t> activeCycles;  ///< cycles with changes (first 512)

  [[nodiscard]] bool triggered() const noexcept { return writes > 0; }
};

class OperationalProfile {
 public:
  /// Records the profile from the rows of `golden`; throws
  /// std::invalid_argument unless it was recorded on the zone database's
  /// compiled design (db.compiledShared()).
  static OperationalProfile record(const zones::ZoneDatabase& db,
                                   const faultsim::GoldenRun& golden);

  [[nodiscard]] std::uint64_t totalCycles() const noexcept { return cycles_; }
  [[nodiscard]] const ZoneActivity& zone(zones::ZoneId z) const {
    return activity_.at(z);
  }
  [[nodiscard]] std::size_t zoneCount() const noexcept {
    return activity_.size();
  }

  /// Zones never triggered by the workload (a completeness hole).
  [[nodiscard]] std::vector<zones::ZoneId> untriggeredZones() const;
  /// Fraction of zones triggered at least once.
  [[nodiscard]] double completeness() const;

  /// Maps measured activity onto the FMEA's frequency classes.
  [[nodiscard]] fmea::FreqClass freqClassOf(zones::ZoneId z) const;
  /// Measured lifetime ζ as a fraction of the mean inter-write period.
  [[nodiscard]] double lifetimeFractionOf(zones::ZoneId z) const;

  void print(std::ostream& out, const zones::ZoneDatabase& db,
             std::size_t maxZones = 20) const;

 private:
  std::uint64_t cycles_ = 0;
  std::vector<ZoneActivity> activity_;
};

}  // namespace socfmea::inject
