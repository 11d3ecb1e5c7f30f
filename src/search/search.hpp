// Closed-loop architecture search: the paper's human v1→v2 iteration run by
// machine.  Each round reads the criticality attribution of the incumbent
// architecture (search/criticality.hpp), proposes additive transforms
// against the top-ranked zones (search/transforms.hpp), scores every
// candidate with a delta campaign over one shared warm artifact store
// (core::IncrementalFlow::evaluateCandidate, per-branch heads), and walks
// the SFF-vs-gate-cost Pareto frontier greedily with beam backtracking
// until the SIL3 margin holds or the campaign budget runs out.  Every
// candidate runs the frmem campaign of core/frmem_config.hpp, the one
// `memsys_sil3_flow --cache-dir` runs, so the two can share a store.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "search/criticality.hpp"
#include "search/transforms.hpp"

namespace socfmea::search {

struct SearchOptions {
  /// Shared warm store.  Null runs every candidate cold (slow; mainly for
  /// the bit-identity cross-check).
  core::ArtifactStore* store = nullptr;
  /// Stop once the best candidate's hybrid SFF reaches this (paper v2's
  /// measured envelope: 99.38 %).
  double targetSff = 0.9938;
  /// Campaign budget: total faults re-simulated across all candidate
  /// evaluations.  0 = unlimited.
  std::size_t faultBudget = 0;
  std::size_t beamWidth = 3;
  /// The loop adds at most one transform per round, and SIL3 margin from v1
  /// takes a low-teens stack of checkers — leave headroom beyond that.
  std::size_t maxRounds = 16;
  /// Proposals taken from the criticality ranking per beam state per round.
  std::size_t candidatesPerRound = 6;
  /// In-process campaign threads per candidate evaluation
  /// (inject::CampaignOptions::threads).
  unsigned threads = 1;
  faultsim::EngineKind engine = faultsim::EngineKind::Auto;
  /// Re-run the winning architecture cold + flat and require bit-identical
  /// verdicts against the search path.
  bool verifyFinal = true;
  /// Progress sink (one line per event); null = silent.
  std::function<void(const std::string&)> log;
};

/// One evaluated architecture (a set of transforms on the v1 baseline).
struct CandidateScore {
  std::string id;  ///< "v1" or the sorted "+"-joined transform ids
  std::vector<TransformSpec> specs;
  double hybridSff = 0.0;
  double analyticSff = 0.0;
  double measuredSff = 0.0;
  std::size_t gateCost = 0;    ///< added gate-equivalents vs v1
  std::size_t faultsTotal = 0;
  std::size_t faultsSimulated = 0;  ///< after delta reuse
  std::size_t faultsReused = 0;
  bool fullHit = false;
  std::size_t round = 0;  ///< round the candidate was first evaluated in

  [[nodiscard]] obs::Json toJson() const;
};

struct SearchResult {
  CandidateScore best;
  /// Every distinct architecture evaluated, in evaluation order.
  std::vector<CandidateScore> evaluated;
  /// Non-dominated (gateCost, hybridSff) frontier, ascending cost.
  std::vector<CandidateScore> pareto;
  std::size_t rounds = 0;
  std::size_t faultsTotal = 0;      ///< summed over evaluations
  std::size_t faultsSimulated = 0;  ///< cost actually paid
  std::size_t faultsReused = 0;
  /// Aggregate delta reuse across all evaluations: reused / total.
  double reuseRatio = 0.0;
  bool targetReached = false;
  bool budgetExhausted = false;
  /// Cold flat re-run of the winner produced bit-identical verdicts.
  bool verifiedIdentical = false;
  std::size_t verifiedRecords = 0;
  /// The winner's full criticality attribution (ranked zones and sites) —
  /// what the next engineer (or the next search round) would act on.
  obs::Json bestCriticality;

  [[nodiscard]] obs::Json toJson() const;
};

/// The search driver.  One instance owns the evaluation cache; run() is the
/// whole loop.  Exports `search.loop.*` telemetry.
class ArchitectureSearch {
 public:
  explicit ArchitectureSearch(SearchOptions opt);
  ~ArchitectureSearch();

  [[nodiscard]] SearchResult run();

 private:
  struct Eval;  ///< cached evaluation of one architecture
  [[nodiscard]] const Eval& evaluate(const std::vector<TransformSpec>& specs,
                                     const std::string& parentId,
                                     std::size_t round);
  [[nodiscard]] std::vector<TransformSpec> propose(
      const Eval& state) const;
  [[nodiscard]] bool verifyBitIdentity(const Eval& best);

  SearchOptions opt_;
  std::map<std::string, std::unique_ptr<Eval>> cache_;
  std::size_t faultsTotal_ = 0;
  std::size_t faultsSimulated_ = 0;
  std::size_t faultsReused_ = 0;
};

/// Canonical id of an architecture: "v1" for the empty set, else the
/// id()-sorted "+"-join (so the same set always names the same head branch
/// and store keys, whatever order the search discovered it in).
[[nodiscard]] std::string architectureId(std::vector<TransformSpec>& specs);

}  // namespace socfmea::search
