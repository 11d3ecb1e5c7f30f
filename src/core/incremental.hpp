// IncrementalFlow: the delta-reuse front of the flow.  Owns an FmeaFlow
// (which always runs in process) and adds the injection campaign, the one
// step it keeps in the artifact store: a campaign keyed by (design hash,
// stimulus hashes, fault keys, seeds, workload tag, campaign options) loads
// whole from the store; otherwise the previous run's head state (design
// text + campaign key) is diffed against the current design and only faults
// inside the affected cone are re-simulated (inject/delta.hpp), which is
// bit-identical to a cold run by construction.  A store therefore holds
// only `campaign-*.json` artifacts and `head-*.json` slots.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/artifact_store.hpp"
#include "core/flow.hpp"
#include "faultsim/stimulus.hpp"
#include "inject/delta.hpp"

namespace socfmea::core {

struct IncrementalOptions {
  ArtifactStore* store = nullptr;  ///< null = cold every time
  /// Fraction of reusable faults re-simulated anyway to cross-check the
  /// cache (any mismatch re-simulates every reused fault).
  double revalidateFraction = 0.02;
  /// Head-slot name: one slot per (design family × workload) iteration line.
  std::string headSlot = "flow";
  /// Head branch within the slot ("" = the base slot).  Candidate
  /// evaluations in a search give each candidate line its own branch so
  /// interleaved runs don't overwrite each other's delta baseline.
  std::string headBranch;
  /// Branch whose head seeds this branch's first delta when the branch's own
  /// head is absent (typically the search's current accepted architecture;
  /// "" falls through to the base slot).  Read-only fallback: this flow
  /// never writes to the parent.
  std::string headParent;
  /// Fingerprint of the workload configuration (folded into campaign keys;
  /// two workloads with equal tags must produce equal stimulus).
  std::uint64_t workloadTag = 0;
  /// Deterministic memory-fault samples appended per memory instance
  /// (`perKind` faults of each applicable kind, fault/fault_list.hpp).  The
  /// array dominates the physical FIT budget, so campaigns weight it beyond
  /// the per-zone-bit quota; the sample is a pure function of the seed and
  /// the (unchanged) memory geometry, so its fault keys are shared across
  /// architectural iterations.
  std::size_t memFaultsPerKind = 0;
  std::uint64_t memFaultSeed = 0x4D454Du;
};

/// Outcome of one incremental campaign run.
struct IncrementalCampaign {
  inject::CampaignResult result;
  inject::DeltaStats delta;
  bool fullHit = false;   ///< whole campaign loaded from the store
  bool deltaRun = false;  ///< head diff + cone reuse path taken
};

class IncrementalFlow {
 public:
  IncrementalFlow(const netlist::Netlist& nl, FlowConfig cfg,
                  IncrementalOptions opt);

  [[nodiscard]] FmeaFlow& flow() noexcept { return flow_; }
  [[nodiscard]] const FmeaFlow& flow() const noexcept { return flow_; }
  [[nodiscard]] const IncrementalOptions& options() const noexcept {
    return opt_;
  }

  /// The paper's validation step (a) with delta reuse over `stim`, the
  /// workload's trace over the design's primary inputs: records its golden
  /// run once (faultsim::GoldenRun, on every path, store hits included),
  /// which the profile and the campaign read, and hashes the trace for the
  /// campaign key.  Enumerates the zone-failure fault list, then loads /
  /// delta-merges / cold-runs the campaign (timed as the flow graph's
  /// "campaign" stage) and persists the artifact + head state for the next
  /// iteration.  Exports `flow.incremental.*` telemetry.
  [[nodiscard]] IncrementalCampaign runZoneFailureCampaign(
      const faultsim::StimulusTrace& stim, std::size_t perBit,
      std::uint64_t seed, std::uint64_t detectionWindow,
      const inject::CampaignOptions& copt = {});

  /// Stage timings + store statistics (under "graph") and the last
  /// campaign, for --json output.
  [[nodiscard]] obs::Json report() const;

  /// Batch candidate evaluation (the architecture-search entry point): one
  /// flow + delta campaign for a candidate design over the shared warm
  /// store.  `opt.headBranch` must name the candidate line (and
  /// `opt.headParent` its baseline) so interleaved evaluations never thrash
  /// each other's head snapshot.  Returns the campaign along with the flow
  /// (for the sheet / zone database the scorer needs).
  struct CandidateEvaluation {
    std::unique_ptr<IncrementalFlow> flow;
    IncrementalCampaign campaign;
  };
  [[nodiscard]] static CandidateEvaluation evaluateCandidate(
      const netlist::Netlist& nl, FlowConfig cfg, IncrementalOptions opt,
      const faultsim::StimulusTrace& stim, std::size_t perBit,
      std::uint64_t seed, std::uint64_t detectionWindow,
      const inject::CampaignOptions& copt = {});

 private:
  const netlist::Netlist* nl_;
  IncrementalOptions opt_;
  /// Structural hash of the design: the campaign key's design component.
  std::uint64_t designHash_ = 0;
  FmeaFlow flow_;
  obs::Json lastCampaign_ = obs::Json::object();
};

}  // namespace socfmea::core
