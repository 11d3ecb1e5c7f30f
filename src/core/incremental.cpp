#include "core/incremental.hpp"

#include <cstdlib>

#include "fault/fault_list.hpp"
#include "fault/serialize.hpp"
#include "inject/env_builder.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::core {

using netlist::hashHex;
using netlist::hashMix;
using netlist::hashString;

namespace {

std::uint64_t campaignOptionsHash(const netlist::Netlist& nl,
                                  const inject::CampaignOptions& copt) {
  // engine / threads are excluded on purpose: the engines are
  // record-identical across them (CI-tested), so they must not split the
  // cache.  The latent fault is keyed by name, like the cached records, so
  // an edit that renumbers its site keeps the key.
  std::uint64_t h = hashMix(0xCA4Bu, copt.earlyAbort ? 1 : 0);
  if (copt.preexisting) {
    h = hashMix(h, hashString(fault::faultKey(nl, *copt.preexisting)));
  }
  return h;
}

/// Per-primary-input hash of the stimulus trace's stream, keyed by input
/// name — the diff layer's view of "did the testbench change at this pin".
obs::Json stimulusHashes(const netlist::Netlist& nl,
                         const faultsim::StimulusTrace& stim,
                         std::uint64_t* total) {
  obs::Json j = obs::Json::object();
  std::uint64_t all = 0x57131u;
  for (std::size_t i = 0; i < stim.inputs.size(); ++i) {
    std::uint64_t h = 0x57132u;
    for (const std::vector<bool>& cycle : stim.values) {
      h = hashMix(h, cycle[i] ? 1 : 0);
    }
    const std::string& name = nl.net(stim.inputs[i]).name;
    j[name] = hashHex(h);
    all = hashMix(all, hashMix(hashString(name), h));
  }
  if (total != nullptr) *total = all;
  return j;
}

std::optional<std::uint64_t> parseHex(const obs::Json* j) {
  if (j == nullptr || !j->isString()) return std::nullopt;
  const std::string& s = j->asString();
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

}  // namespace

IncrementalFlow::IncrementalFlow(const netlist::Netlist& nl, FlowConfig cfg,
                                 IncrementalOptions opt)
    : nl_(&nl),
      opt_(std::move(opt)),
      designHash_(netlist::hashNetlist(nl)),
      flow_(nl, std::move(cfg)) {}

IncrementalCampaign IncrementalFlow::runZoneFailureCampaign(
    const faultsim::StimulusTrace& stim, std::size_t perBit,
    std::uint64_t seed, std::uint64_t detectionWindow,
    const inject::CampaignOptions& copt) {
  const netlist::Netlist& nl = *nl_;
  const zones::ZoneDatabase& db = flow_.zones();
  const zones::EffectsModel& effects = flow_.effects();
  const netlist::CompiledDesignPtr& cd = db.compiledShared();

  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(db, effects)
          .withDetectionWindow(detectionWindow)
          .build();
  inject::InjectionManager mgr(env);
  // The one fault-free run of this campaign, on every path: the profile
  // needs it even on a full store hit, because the fault list (and so the
  // campaign key) comes from the profile.
  const faultsim::GoldenRun golden(cd, stim);
  const inject::OperationalProfile profile =
      inject::OperationalProfile::record(db, golden);
  fault::FaultList faults = mgr.zoneFailureFaults(profile, perBit, seed);
  if (opt_.memFaultsPerKind > 0) {
    for (netlist::MemoryId m = 0; m < nl.memoryCount(); ++m) {
      sim::Rng rng(hashMix(opt_.memFaultSeed, hashString(nl.memory(m).name)));
      fault::append(faults,
                    fault::memoryFaults(nl, m, opt_.memFaultsPerKind, rng));
    }
  }

  std::uint64_t stimTotal = 0;
  const obs::Json stimJson = stimulusHashes(nl, stim, &stimTotal);

  std::uint64_t faultsHash = 0xFA17u;
  for (const fault::Fault& f : faults) {
    faultsHash = hashMix(faultsHash, hashString(fault::faultKey(nl, f)));
  }
  const std::uint64_t optsKey =
      hashMix(hashMix(hashMix(detectionWindow, seed), perBit),
              hashMix(hashMix(campaignOptionsHash(nl, copt), opt_.workloadTag),
                      hashMix(opt_.memFaultsPerKind, opt_.memFaultSeed)));
  const std::uint64_t campaignKey = hashMix(hashMix(designHash_, optsKey),
                                            hashMix(faultsHash, stimTotal));

  IncrementalCampaign out;
  inject::CoverageCollector cov(mgr.environment());

  flow_.graph().stage("campaign", [&] {
    ArtifactStore* store = opt_.store;
    if (store != nullptr) {
      // Hit: every verdict comes from the store.  Records that do not bind
      // (a foreign artifact under a colliding key, a cycle outside the
      // workload) take the miss path below, which overwrites them.
      if (const auto art = store->load("campaign", campaignKey)) {
        if (auto records = inject::bindCampaignRecords(
                inject::CachedCampaign::fromJson(*art), nl, faults, db,
                effects, stim.cycles())) {
          out.result.records = std::move(*records);
          for (const inject::InjectionRecord& rec : out.result.records) {
            cov.account(rec.obs);
          }
          out.fullHit = true;
          out.delta.total = faults.size();
          out.delta.reused = faults.size();
          return;
        }
      }
      // Miss: delta-merge against the previous head when possible.  Branch
      // fallback chain: this branch's own head, then the parent branch (the
      // search's accepted architecture), then the base slot — the closest
      // warm baseline wins.
      auto head = store->loadHead(opt_.headSlot, opt_.headBranch);
      if (!head && !opt_.headParent.empty()) {
        head = store->loadHead(opt_.headSlot, opt_.headParent);
      }
      if (!head && !opt_.headBranch.empty()) {
        head = store->loadHead(opt_.headSlot);
      }
      // A head without a campaign key, or whose campaign is the one that
      // just failed to load or bind, has no baseline to offer: run cold.
      const obs::Json* text = head ? head->find("design_text") : nullptr;
      const obs::Json* headOpts = head ? head->find("opts_key") : nullptr;
      const std::uint64_t prevKey =
          head ? parseHex(head->find("campaign_key")).value_or(campaignKey)
               : campaignKey;
      if (text != nullptr && text->isString() && headOpts != nullptr &&
          headOpts->isString() && headOpts->asString() == hashHex(optsKey) &&
          prevKey != campaignKey) {
        if (auto prevArt = store->load("campaign", prevKey)) {
          try {
            const netlist::Netlist prev =
                netlist::readNetlistString(text->asString());
            const netlist::NetlistDiff d = netlist::diff(prev, nl);
            // Inputs whose stimulus stream changed seed the cone exactly
            // like edited cells.
            std::vector<netlist::NetId> extraSeeds;
            const obs::Json* prevStim = prevArt->find("stimulus");
            for (const auto& [name, hash] : stimJson.items()) {
              const obs::Json* old =
                  prevStim != nullptr ? prevStim->find(name) : nullptr;
              if (old == nullptr || !old->isString() ||
                  old->asString() != hash.asString()) {
                if (const auto id = nl.findNet(name)) {
                  extraSeeds.push_back(*id);
                }
              }
            }
            const netlist::AffectedCone cone =
                netlist::affectedCone(*cd, d, extraSeeds);
            const inject::CachedCampaign cache =
                inject::CachedCampaign::fromJson(*prevArt);
            out.result = inject::runCampaignDelta(
                mgr, golden, faults, cache, cone, &cov, copt,
                opt_.revalidateFraction, &out.delta);
            out.deltaRun = true;
          } catch (const std::exception&) {
            out.deltaRun = false;  // unreadable head: cold below
          }
        }
      }
    }
    if (!out.deltaRun) {
      out.result = mgr.run(golden, faults, &cov, copt);
      out.delta.total = faults.size();
      out.delta.simulated = faults.size();
    }
    if (store != nullptr) {
      obs::Json a = campaignRecordsToJson(nl, db, effects, out.result);
      a["stimulus"] = stimJson;
      a["opts_key"] = hashHex(optsKey);
      store->save("campaign", campaignKey, a);
    }
  });

  if (opt_.store != nullptr) {
    obs::Json head = obs::Json::object();
    head["design"] = nl.name();
    head["design_hash"] = hashHex(designHash_);
    head["design_text"] = netlist::writeNetlistString(nl);
    head["campaign_key"] = hashHex(campaignKey);
    head["opts_key"] = hashHex(optsKey);
    // Writes stay on this flow's own branch: a candidate evaluation must
    // never clobber the base slot (or a sibling candidate's branch).
    opt_.store->saveHead(opt_.headSlot, opt_.headBranch, head);
  }

  obs::Registry& reg = obs::Registry::global();
  reg.add("flow.incremental.faults_total", out.delta.total);
  reg.add("flow.incremental.faults_reused", out.delta.reused);
  reg.add("flow.incremental.faults_resimulated", out.delta.simulated);
  reg.add("flow.incremental.revalidated", out.delta.revalidated);
  reg.add("flow.incremental.revalidate_mismatches", out.delta.mismatches);
  if (opt_.store != nullptr) {
    const ArtifactStore::Stats& st = opt_.store->stats();
    reg.set("flow.incremental.store_hits",
            static_cast<double>(st.memoryHits + st.diskHits));
    reg.set("flow.incremental.store_misses", static_cast<double>(st.misses));
  }
  reg.set("flow.incremental.resim_fraction",
          out.delta.total == 0 ? 0.0
                               : static_cast<double>(out.delta.simulated) /
                                     static_cast<double>(out.delta.total));

  obs::Json cj = obs::Json::object();
  cj["full_hit"] = out.fullHit;
  cj["delta_run"] = out.deltaRun;
  // Campaigns run in-process on one exact path; perfbench/reference pins
  // both keys.
  cj["distributed_run"] = false;
  cj["tiered_run"] = false;
  cj["delta"] = out.delta.toJson();
  cj["coverage_completeness"] = cov.completeness();
  cj["campaign"] = out.result.toJson(&db);
  lastCampaign_ = std::move(cj);
  return out;
}

IncrementalFlow::CandidateEvaluation IncrementalFlow::evaluateCandidate(
    const netlist::Netlist& nl, FlowConfig cfg, IncrementalOptions opt,
    const faultsim::StimulusTrace& stim, std::size_t perBit,
    std::uint64_t seed, std::uint64_t detectionWindow,
    const inject::CampaignOptions& copt) {
  CandidateEvaluation ev;
  ev.flow = std::make_unique<IncrementalFlow>(nl, std::move(cfg), opt);
  ev.campaign = ev.flow->runZoneFailureCampaign(stim, perBit, seed,
                                                detectionWindow, copt);
  return ev;
}

obs::Json IncrementalFlow::report() const {
  obs::Json j = obs::Json::object();
  j["design"] = nl_->name();
  j["design_hash"] = hashHex(designHash_);
  obs::Json graph = flow_.graph().report();
  if (opt_.store != nullptr) graph["store"] = opt_.store->statsJson();
  j["graph"] = std::move(graph);
  j["sff"] = flow_.sff();
  j["dc"] = flow_.dc();
  j["sil"] = static_cast<int>(flow_.sil());
  j["campaign"] = lastCampaign_;
  return j;
}

}  // namespace socfmea::core
