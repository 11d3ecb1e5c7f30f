#include "search/search.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/frmem_config.hpp"
#include "fault/serialize.hpp"
#include "memsys/workloads.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::search {

std::string architectureId(std::vector<TransformSpec>& specs) {
  std::sort(specs.begin(), specs.end(),
            [](const TransformSpec& a, const TransformSpec& b) {
              return a.id() < b.id();
            });
  if (specs.empty()) return "v1";
  std::string id;
  for (const TransformSpec& s : specs) {
    if (!id.empty()) id += '+';
    id += s.id();
  }
  return id;
}

obs::Json CandidateScore::toJson() const {
  obs::Json j = obs::Json::object();
  j["id"] = id;
  obs::Json specsJson = obs::Json::array();
  for (const TransformSpec& s : specs) specsJson.push_back(s.toJson());
  j["transforms"] = std::move(specsJson);
  j["hybrid_sff"] = hybridSff;
  j["analytic_sff"] = analyticSff;
  j["measured_sff"] = measuredSff;
  j["gate_cost"] = static_cast<long long>(gateCost);
  j["faults_total"] = static_cast<long long>(faultsTotal);
  j["faults_simulated"] = static_cast<long long>(faultsSimulated);
  j["faults_reused"] = static_cast<long long>(faultsReused);
  j["full_hit"] = fullHit;
  j["round"] = static_cast<long long>(round);
  return j;
}

obs::Json SearchResult::toJson() const {
  obs::Json j = obs::Json::object();
  j["best"] = best.toJson();
  obs::Json evs = obs::Json::array();
  for (const CandidateScore& c : evaluated) evs.push_back(c.toJson());
  j["evaluated"] = std::move(evs);
  obs::Json front = obs::Json::array();
  for (const CandidateScore& c : pareto) front.push_back(c.toJson());
  j["pareto"] = std::move(front);
  j["candidates_evaluated"] = static_cast<long long>(evaluated.size());
  j["rounds"] = static_cast<long long>(rounds);
  j["faults_total"] = static_cast<long long>(faultsTotal);
  j["faults_simulated"] = static_cast<long long>(faultsSimulated);
  j["faults_reused"] = static_cast<long long>(faultsReused);
  j["reuse_ratio"] = reuseRatio;
  j["target_reached"] = targetReached;
  j["budget_exhausted"] = budgetExhausted;
  j["verified_identical"] = verifiedIdentical;
  j["verified_records"] = static_cast<long long>(verifiedRecords);
  j["criticality"] = bestCriticality;
  return j;
}

/// Cached evaluation of one architecture: the score plus everything the
/// proposer and the final bit-identity check need.
struct ArchitectureSearch::Eval {
  CandidateScore score;
  memsys::GateLevelDesign design;
  std::vector<AppliedTransform> applied;
  CriticalityMap crit;
  std::vector<inject::InjectionRecord> records;
};

namespace {

/// Builds the candidate design (v1 baseline + transforms) and its flow
/// config, including the transforms' claims and the checker-zone safe
/// factors.  Shared by evaluation and the final cold verify so both paths
/// construct the same architecture by construction.
struct BuiltCandidate {
  memsys::GateLevelDesign design;
  std::vector<AppliedTransform> applied;
  core::FlowConfig cfg;
  std::size_t gateCost = 0;
};

BuiltCandidate buildCandidate(const std::vector<TransformSpec>& specs,
                              const std::string& id) {
  BuiltCandidate b{memsys::buildProtectionIp(memsys::GateLevelOptions::v1()),
                   {},
                   {},
                   0};
  auto applied = applyTransforms(b.design.nl, specs);
  if (!applied) {
    throw std::runtime_error("architecture '" + id +
                             "': transform did not resolve");
  }
  b.applied = std::move(*applied);
  std::vector<ClaimEdit> claims;
  for (const AppliedTransform& t : b.applied) {
    b.gateCost += t.gateCost;
    b.design.alarmNames.insert(b.design.alarmNames.end(),
                               t.alarmNames.begin(), t.alarmNames.end());
    claims.insert(claims.end(), t.claims.begin(), t.claims.end());
  }
  b.cfg = core::makeFrmemFlowConfig(b.design);
  const auto baseHook = b.cfg.configureSheet;
  b.cfg.configureSheet = [baseHook, claims](fmea::FmeaSheet& sheet,
                                            const zones::ZoneDatabase& db) {
    if (baseHook) baseHook(sheet, db);
    // Checker state itself annunciates when it flips (a diverging shadow or
    // parity FF raises the very alarm it feeds) — same S factor the frmem
    // config grants the hand-built v2 checkers.
    sheet.setSafeFactors("srch", fmea::SdFactors{0.95, 0.0});
    for (const ClaimEdit& c : claims) {
      sheet.addClaim(c.zonePattern, c.modePattern, c.claim);
    }
  };
  return b;
}

bool sameVerdicts(const netlist::Netlist& nl,
                  const std::vector<inject::InjectionRecord>& a,
                  const std::vector<inject::InjectionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const inject::InjectionRecord& ra = a[i];
    const inject::InjectionRecord& rb = b[i];
    if (fault::faultKey(nl, ra.fault) != fault::faultKey(nl, rb.fault) ||
        ra.outcome != rb.outcome || ra.obs.sens != rb.obs.sens ||
        ra.obs.obs != rb.obs.obs || ra.obs.diag != rb.obs.diag ||
        ra.obs.firstObsCycle != rb.obs.firstObsCycle ||
        ra.obs.diagCycle != rb.obs.diagCycle) {
      return false;
    }
  }
  return true;
}

}  // namespace

ArchitectureSearch::ArchitectureSearch(SearchOptions opt)
    : opt_(std::move(opt)) {}

ArchitectureSearch::~ArchitectureSearch() = default;

const ArchitectureSearch::Eval& ArchitectureSearch::evaluate(
    const std::vector<TransformSpec>& specs, const std::string& parentId,
    std::size_t round) {
  std::vector<TransformSpec> sorted = specs;
  const std::string id = architectureId(sorted);
  if (const auto it = cache_.find(id); it != cache_.end()) {
    return *it->second;
  }

  auto ev = std::make_unique<Eval>();
  BuiltCandidate built = buildCandidate(sorted, id);

  core::IncrementalOptions iopt;
  iopt.store = opt_.store;
  iopt.headSlot = "search";
  iopt.headBranch = id == "v1" ? std::string() : id;
  iopt.headParent = parentId == "v1" ? std::string() : parentId;
  iopt.memFaultsPerKind = core::kFrmemMemFaultsPerKind;
  iopt.workloadTag = core::frmemWorkloadTag();

  memsys::ProtectionIpWorkload wl(built.design, core::frmemWorkloadOptions());
  inject::CampaignOptions copt;
  copt.engine = opt_.engine;
  copt.threads = opt_.threads;
  auto run = core::IncrementalFlow::evaluateCandidate(
      built.design.nl, built.cfg, iopt, wl, core::kFrmemPerBit,
      core::kFrmemCampaignSeed, core::kFrmemDetectionWindow, copt);

  ev->crit = CriticalityMap::fromCampaign(
      built.design.nl, run.flow->flow().zones(), run.campaign.result,
      &run.flow->flow().sheet());

  CandidateScore& s = ev->score;
  s.id = id;
  s.specs = std::move(sorted);
  s.hybridSff = ev->crit.hybridSff();
  s.analyticSff = ev->crit.analyticSff();
  s.measuredSff = ev->crit.measuredSff();
  s.gateCost = built.gateCost;
  s.faultsTotal = run.campaign.delta.total;
  s.faultsSimulated = run.campaign.delta.simulated;
  s.faultsReused = run.campaign.delta.reused;
  s.fullHit = run.campaign.fullHit;
  s.round = round;
  ev->design = std::move(built.design);
  ev->applied = std::move(built.applied);
  ev->records = std::move(run.campaign.result.records);

  faultsTotal_ += s.faultsTotal;
  faultsSimulated_ += s.faultsSimulated;
  faultsReused_ += s.faultsReused;

  if (opt_.log) {
    opt_.log("eval " + id + ": hybrid SFF " + std::to_string(s.hybridSff) +
             ", cost " + std::to_string(s.gateCost) + " GE, " +
             std::to_string(s.faultsSimulated) + "/" +
             std::to_string(s.faultsTotal) + " faults re-simulated");
  }
  return *cache_.emplace(id, std::move(ev)).first->second;
}

std::vector<TransformSpec> ArchitectureSearch::propose(
    const Eval& state) const {
  std::set<std::string> have;
  for (const TransformSpec& s : state.score.specs) have.insert(s.id());

  const std::vector<BankTarget> banks = enumerateBanks(state.design.nl);
  const auto bankWidth = [&](const std::string& name) -> std::size_t {
    for (const BankTarget& b : banks) {
      if (b.prefix == name) return b.width;
    }
    return 0;
  };
  const auto isMemory = [&](const std::string& name) {
    for (netlist::MemoryId m = 0; m < state.design.nl.memoryCount(); ++m) {
      if (state.design.nl.memory(m).name == name) return true;
    }
    return false;
  };

  std::vector<TransformSpec> out;
  const auto push = [&](TransformSpec spec) {
    if (out.size() >= opt_.candidatesPerRound) return;
    if (!have.insert(spec.id()).second) return;
    out.push_back(std::move(spec));
  };

  // The deployment-test policy is free in gates and always applicable; it
  // competes with the netlist edits on the frontier from round one.
  push(TransformSpec{TransformKind::StartupTests, "", 0});

  // Walk the criticality ranking: the transform menu per zone mirrors what
  // the paper's engineers did per block, now chosen by measured λDU share.
  for (const ZoneCriticality& z : state.crit.zones()) {
    if (out.size() >= opt_.candidatesPerRound) break;
    if (z.lambdaDu <= 0.0 && z.duShare <= 0.0) continue;
    // Never instrument the search's own checkers.
    if (z.name.rfind("srch", 0) == 0) continue;
    if (isMemory(z.name)) {
      push(TransformSpec{TransformKind::MemSignature, z.name, 0});
      push(TransformSpec{TransformKind::ScrubRate, z.name, 0});
    } else if (const std::size_t w = bankWidth(z.name); w > 0) {
      push(TransformSpec{TransformKind::DuplicateCompare, z.name, 0});
      // A one-bit parity predictor is just a weaker duplicate at the same
      // cost, so only multi-bit banks get the cheap-parity alternative.
      if (w >= 2) push(TransformSpec{TransformKind::ParityPredict, z.name, 0});
    }
  }
  return out;
}

bool ArchitectureSearch::verifyBitIdentity(const Eval& best) {
  // Cold flat re-run: no store, no delta, one thread.
  BuiltCandidate built = buildCandidate(best.score.specs, best.score.id);
  core::IncrementalOptions iopt;
  iopt.store = nullptr;
  iopt.memFaultsPerKind = core::kFrmemMemFaultsPerKind;
  iopt.workloadTag = core::frmemWorkloadTag();
  memsys::ProtectionIpWorkload wl(built.design, core::frmemWorkloadOptions());
  inject::CampaignOptions copt;
  copt.engine = opt_.engine;
  auto cold = core::IncrementalFlow::evaluateCandidate(
      built.design.nl, built.cfg, iopt, wl, core::kFrmemPerBit,
      core::kFrmemCampaignSeed, core::kFrmemDetectionWindow, copt);
  return sameVerdicts(built.design.nl, best.records,
                      cold.campaign.result.records);
}

SearchResult ArchitectureSearch::run() {
  SearchResult res;
  const auto budgetLeft = [&] {
    return opt_.faultBudget == 0 || faultsSimulated_ < opt_.faultBudget;
  };

  const Eval* base = &evaluate({}, "v1", 0);
  std::vector<const Eval*> beam{base};
  const Eval* best = base;
  res.evaluated.push_back(base->score);
  base->crit.exportTelemetry();

  std::size_t round = 0;
  if (best->score.hybridSff < opt_.targetSff) {
    for (round = 1; round <= opt_.maxRounds; ++round) {
      if (!budgetLeft()) {
        res.budgetExhausted = true;
        break;
      }
      bool expanded = false;
      std::vector<const Eval*> pool = beam;
      for (const Eval* state : beam) {
        for (const TransformSpec& p : propose(*state)) {
          if (!budgetLeft()) break;
          std::vector<TransformSpec> specs = state->score.specs;
          specs.push_back(p);
          std::vector<TransformSpec> probe = specs;
          const bool fresh = !cache_.contains(architectureId(probe));
          const Eval& e = evaluate(specs, state->score.id, round);
          if (fresh) {
            expanded = true;
            res.evaluated.push_back(e.score);
          }
          pool.push_back(&e);
        }
      }
      // Beam selection: best hybrid SFF first, cheaper architecture on a
      // tie.  Keeping beamWidth states (not just the greedy winner) lets a
      // round revisit a cheaper line whose next transform overtakes.
      std::sort(pool.begin(), pool.end(), [](const Eval* a, const Eval* b) {
        if (a->score.hybridSff != b->score.hybridSff) {
          return a->score.hybridSff > b->score.hybridSff;
        }
        if (a->score.gateCost != b->score.gateCost) {
          return a->score.gateCost < b->score.gateCost;
        }
        return a->score.id < b->score.id;
      });
      pool.erase(std::unique(pool.begin(), pool.end(),
                             [](const Eval* a, const Eval* b) {
                               return a->score.id == b->score.id;
                             }),
                 pool.end());
      if (pool.size() > opt_.beamWidth) pool.resize(opt_.beamWidth);
      beam = std::move(pool);
      if (beam.front()->score.hybridSff > best->score.hybridSff ||
          (beam.front()->score.hybridSff == best->score.hybridSff &&
           beam.front()->score.gateCost < best->score.gateCost)) {
        best = beam.front();
      }
      if (opt_.log) {
        opt_.log("round " + std::to_string(round) + ": best " +
                 best->score.id + " hybrid SFF " +
                 std::to_string(best->score.hybridSff));
      }
      if (best->score.hybridSff >= opt_.targetSff) break;
      if (!expanded) break;  // proposal space exhausted: converged
    }
  }
  res.rounds = std::min(round, opt_.maxRounds);
  res.targetReached = best->score.hybridSff >= opt_.targetSff;
  res.best = best->score;
  res.faultsTotal = faultsTotal_;
  res.faultsSimulated = faultsSimulated_;
  res.faultsReused = faultsReused_;
  res.reuseRatio = faultsTotal_ == 0
                       ? 0.0
                       : static_cast<double>(faultsReused_) /
                             static_cast<double>(faultsTotal_);

  // Pareto frontier over every evaluated architecture: ascending gate cost,
  // strictly improving hybrid SFF.
  std::vector<const Eval*> all;
  all.reserve(cache_.size());
  for (const auto& [id, e] : cache_) all.push_back(e.get());
  std::sort(all.begin(), all.end(), [](const Eval* a, const Eval* b) {
    if (a->score.gateCost != b->score.gateCost) {
      return a->score.gateCost < b->score.gateCost;
    }
    return a->score.hybridSff > b->score.hybridSff;
  });
  double frontier = -1.0;
  for (const Eval* e : all) {
    if (e->score.hybridSff > frontier) {
      res.pareto.push_back(e->score);
      frontier = e->score.hybridSff;
    }
  }

  if (opt_.verifyFinal) {
    if (opt_.log) opt_.log("verifying " + best->score.id + " cold + flat");
    res.verifiedIdentical = verifyBitIdentity(*best);
    res.verifiedRecords = best->records.size();
  }
  res.bestCriticality = best->crit.toJson();
  best->crit.exportTelemetry();

  obs::Registry& reg = obs::Registry::global();
  reg.set("search.loop.candidates", static_cast<double>(res.evaluated.size()));
  reg.set("search.loop.rounds", static_cast<double>(res.rounds));
  reg.set("search.loop.faults_total", static_cast<double>(res.faultsTotal));
  reg.set("search.loop.faults_simulated",
          static_cast<double>(res.faultsSimulated));
  reg.set("search.loop.reuse_ratio", res.reuseRatio);
  reg.set("search.loop.best_sff", res.best.hybridSff);
  reg.set("search.loop.best_cost", static_cast<double>(res.best.gateCost));
  reg.set("search.loop.target_reached", res.targetReached ? 1.0 : 0.0);
  return res;
}

}  // namespace socfmea::search
