// Delta-aware campaign entry point: merges cached verdicts from a previous
// design iteration with fresh simulation of the faults whose site lies in
// the affected cone of the edit (netlist::diff / affectedCone).  Faults are
// matched across iterations by their name-based faultKey; a cached record is
// reused only when its key is present, its site is outside the cone and its
// zone / observation references rebind on the new design — everything else
// is simulated, so a cache miss degrades to a cold run, never to a wrong
// verdict.  A configurable random revalidation sample re-simulates reused
// faults anyway and cross-checks the cache; any mismatch triggers a full
// re-simulation of every reused fault, preserving the bit-identity
// guarantee even against a corrupted store.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "inject/manager.hpp"
#include "netlist/diff.hpp"

namespace socfmea::inject {

/// Name-based record list for the artifact store (keys, zone names,
/// observation-point names — no ids, so it survives renumbering).
[[nodiscard]] obs::Json campaignRecordsToJson(const netlist::Netlist& nl,
                                              const zones::ZoneDatabase& db,
                                              const zones::EffectsModel& effects,
                                              const CampaignResult& r);

/// One cached verdict, still name-based (rebinding happens per reuse).
struct CachedRecord {
  Outcome outcome = Outcome::NoEffect;
  std::string zone;
  bool sens = false;
  std::uint64_t sensCycle = 0;
  std::vector<std::string> zonesDeviated;
  bool obsHit = false;
  std::uint64_t firstObsCycle = 0;
  std::vector<std::string> obsDeviated;
  bool diag = false;
  std::uint64_t diagCycle = 0;
};

/// Parsed campaignRecordsToJson() artifact, indexed by faultKey.
struct CachedCampaign {
  std::unordered_map<std::string, CachedRecord> byKey;

  [[nodiscard]] static CachedCampaign fromJson(const obs::Json& j);
};

/// Rebinds one cached record's zone / observation names onto the (possibly
/// edited) design; nullopt when any reference no longer resolves or any of
/// its cycles lies outside the workload's `cycles` — the caller simulates
/// the fault instead.
[[nodiscard]] std::optional<InjectionRecord> bindCachedRecord(
    const CachedRecord& c, const fault::Fault& f,
    const zones::ZoneDatabase& db, const zones::EffectsModel& effects,
    std::uint64_t cycles);

/// Binds every fault's cached record in fault-list order; nullopt when any
/// key is absent or any record fails to bind (bindCachedRecord).  The
/// incremental flow's whole-campaign store hit goes through this.
[[nodiscard]] std::optional<std::vector<InjectionRecord>> bindCampaignRecords(
    const CachedCampaign& cache, const netlist::Netlist& nl,
    const fault::FaultList& faults, const zones::ZoneDatabase& db,
    const zones::EffectsModel& effects, std::uint64_t cycles);

struct DeltaStats {
  std::size_t total = 0;        ///< faults in the new list
  std::size_t reused = 0;       ///< verdicts merged from the cache
  std::size_t simulated = 0;    ///< faults actually simulated
  std::size_t revalidated = 0;  ///< reused faults re-simulated as a sample
  std::size_t mismatches = 0;   ///< revalidation disagreements (≠ 0 ⇒ the
                                ///< whole reused set was re-simulated)
  std::size_t affectedCells = 0;  ///< |R| of the cone (diagnostics)

  [[nodiscard]] obs::Json toJson() const;
};

/// Runs the campaign over `faults` and the golden run `golden`, simulating
/// only faults inside `cone` (plus unmatched keys, records that do not bind
/// and the revalidation sample) and merging cached verdicts for the rest.
/// A latent fault (`opt.preexisting`) inside the cone reuses nothing: every
/// faulty machine carries it into the edit.  Record order, coverage
/// accounting and every metric are bit-identical to
/// `mgr.run(golden, faults, ...)` on a cold cache — the oracle tests enforce
/// this.
[[nodiscard]] CampaignResult runCampaignDelta(
    InjectionManager& mgr, const faultsim::GoldenRun& golden,
    const fault::FaultList& faults,
    const CachedCampaign& cache, const netlist::AffectedCone& cone,
    CoverageCollector* coverage, const CampaignOptions& opt,
    double revalidateFraction, DeltaStats* stats);

}  // namespace socfmea::inject
