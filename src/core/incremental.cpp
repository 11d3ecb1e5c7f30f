#include "core/incremental.hpp"

#include <cstdlib>

#include "fault/fault_list.hpp"
#include "fault/serialize.hpp"
#include "faultsim/stimulus.hpp"
#include "inject/env_builder.hpp"
#include "netlist/hash.hpp"
#include "netlist/text_format.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::core {

using netlist::hashHex;
using netlist::hashMix;
using netlist::hashString;

namespace {

std::uint64_t campaignOptionsHash(const inject::CampaignOptions& copt) {
  // engine / laneWords / threads / evalMode are excluded on purpose: the
  // engines are record-identical across them (CI-tested), so they must not
  // split the cache.
  std::uint64_t h = hashMix(0xCA4Bu, copt.earlyAbort ? 1 : 0);
  if (copt.preexisting) {
    const fault::Fault& f = *copt.preexisting;
    h = hashMix(h, static_cast<std::uint64_t>(f.kind));
    h = hashMix(h, f.net);
    h = hashMix(h, f.net2);
    h = hashMix(h, f.cell);
    h = hashMix(h, f.mem);
    h = hashMix(h, f.addr);
    h = hashMix(h, f.addr2);
    h = hashMix(h, f.bit);
    h = hashMix(h, f.stuckValue ? 1 : 0);
    h = hashMix(h, f.cycle);
  }
  return h;
}

/// Per-primary-input hash of the recorded stimulus stream, keyed by input
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
    : nl_(&nl), opt_(opt) {
  FlowGraphOptions g;
  g.store = opt_.store;
  g.incremental = opt_.incremental;
  flow_ = std::make_unique<FmeaFlow>(nl, std::move(cfg), g);
}

IncrementalCampaign IncrementalFlow::runZoneFailureCampaign(
    sim::Workload& wl, std::size_t perBit, std::uint64_t seed,
    std::uint64_t detectionWindow, const inject::CampaignOptions& copt) {
  const netlist::Netlist& nl = *nl_;
  const zones::ZoneDatabase& db = flow_->zones();
  const zones::EffectsModel& effects = flow_->effects();
  netlist::CompiledDesignPtr cd = db.compiledShared();
  if (!cd) cd = netlist::compile(nl);

  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(db, effects)
          .withSeed(seed)
          .withDetectionWindow(detectionWindow)
          .build();
  inject::InjectionManager mgr(nl, env);
  const inject::OperationalProfile profile =
      inject::OperationalProfile::record(db, wl);
  fault::FaultList faults = mgr.zoneFailureFaults(profile, perBit, seed);
  if (opt_.memFaultsPerKind > 0) {
    for (netlist::MemoryId m = 0; m < nl.memoryCount(); ++m) {
      sim::Rng rng(hashMix(opt_.memFaultSeed, hashString(nl.memory(m).name)));
      fault::append(faults,
                    fault::memoryFaults(nl, m, opt_.memFaultsPerKind, rng));
    }
  }

  std::uint64_t stimTotal = 0;
  const faultsim::StimulusTrace stim = faultsim::recordStimulus(nl, wl);
  const obs::Json stimJson = stimulusHashes(nl, stim, &stimTotal);

  // Stage: fault enumeration (+ collapse via the profile).  Cheap enough to
  // always recompute; the stage pins the key the campaign depends on.
  std::uint64_t faultsHash = 0xFA17u;
  for (const fault::Fault& f : faults) {
    faultsHash = hashMix(faultsHash, hashString(fault::faultKey(nl, f)));
  }
  const std::uint64_t faultsKey =
      hashMix(hashMix(flow_->zonesKey(), stimTotal),
              hashMix(hashMix(hashMix(seed, perBit), opt_.workloadTag),
                      hashMix(opt_.memFaultsPerKind, opt_.memFaultSeed)));
  flow_->graph().stage("faults", faultsKey, [&] {
    obs::Json a = obs::Json::object();
    a["count"] = static_cast<long long>(faults.size());
    a["keys_hash"] = hashHex(faultsHash);
    return a;
  });

  const std::uint64_t optsKey =
      hashMix(hashMix(hashMix(detectionWindow, seed), perBit),
              hashMix(hashMix(campaignOptionsHash(copt), opt_.workloadTag),
                      hashMix(opt_.memFaultsPerKind, opt_.memFaultSeed)));
  const std::uint64_t campaignKey = hashMix(
      hashMix(flow_->designHash(), optsKey), hashMix(faultsHash, stimTotal));

  IncrementalCampaign out;
  out.faultCount = faults.size();
  inject::CoverageCollector cov(mgr.environment());

  bool cached = false;
  const obs::Json art = flow_->graph().stage(
      "campaign", campaignKey,
      [&] {
        // Miss: delta-merge against the previous head when possible,
        // otherwise run cold.
        if (opt_.store != nullptr && opt_.incremental) {
          // Branch fallback chain: this branch's own head, then the
          // parent branch (the search's accepted architecture), then the
          // base slot — the closest warm baseline wins.
          auto head = opt_.store->loadHead(opt_.headSlot, opt_.headBranch);
          if (!head && !opt_.headParent.empty()) {
            head = opt_.store->loadHead(opt_.headSlot, opt_.headParent);
          }
          if (!head && !opt_.headBranch.empty()) {
            head = opt_.store->loadHead(opt_.headSlot);
          }
          const obs::Json* text = head ? head->find("design_text") : nullptr;
          const obs::Json* headOpts = head ? head->find("opts_key") : nullptr;
          const auto prevKey =
              head ? parseHex(head->find("campaign_key")) : std::nullopt;
          if (text != nullptr && text->isString() && headOpts != nullptr &&
              headOpts->isString() &&
              headOpts->asString() == hashHex(optsKey) && prevKey) {
            if (auto prevArt = opt_.store->load("campaign", *prevKey)) {
              try {
                const netlist::Netlist prev =
                    netlist::readNetlistString(text->asString());
                const netlist::NetlistDiff d = netlist::diff(prev, nl);
                // Inputs whose recorded stimulus stream changed seed the
                // cone exactly like edited cells.
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
                    mgr, wl, faults, cache, cone, *cd, &cov, copt,
                    opt_.revalidateFraction, opt_.revalidateSeed, &out.delta);
                out.deltaRun = true;
              } catch (const std::exception&) {
                out.deltaRun = false;  // unreadable head: cold below
              }
            }
          }
        }
        if (!out.deltaRun) {
          out.result = mgr.run(wl, faults, &cov, copt);
          out.delta.total = faults.size();
          out.delta.simulated = faults.size();
        }
        obs::Json a = campaignRecordsToJson(nl, db, effects, out.result);
        a["stimulus"] = stimJson;
        a["opts_key"] = hashHex(optsKey);
        return a;
      },
      &cached);

  if (cached) {
    // Whole-campaign hit: every verdict comes from the store.
    const inject::CachedCampaign cache = inject::CachedCampaign::fromJson(art);
    if (auto records =
            inject::bindCampaignRecords(cache, nl, faults, db, effects)) {
      out.result = inject::CampaignResult{};
      out.result.records = std::move(*records);
      for (const inject::InjectionRecord& rec : out.result.records) {
        cov.account(rec.obs);
      }
      out.fullHit = true;
      out.delta.total = faults.size();
      out.delta.reused = faults.size();
    } else {
      // Key collision with a foreign artifact: recompute and overwrite.
      out.result = mgr.run(wl, faults, &cov, copt);
      out.delta.total = faults.size();
      out.delta.simulated = faults.size();
      obs::Json a = campaignRecordsToJson(nl, db, effects, out.result);
      a["stimulus"] = stimJson;
      a["opts_key"] = hashHex(optsKey);
      if (opt_.store != nullptr) {
        opt_.store->save("campaign", campaignKey, a);
      }
    }
  }

  if (opt_.store != nullptr) {
    obs::Json head = obs::Json::object();
    head["design"] = nl.name();
    head["design_hash"] = hashHex(flow_->designHash());
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
  reg.add("flow.incremental.stage_hits", cached ? 1 : 0);
  reg.add("flow.incremental.stage_misses", cached ? 0 : 1);
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
    sim::Workload& wl, std::size_t perBit, std::uint64_t seed,
    std::uint64_t detectionWindow, const inject::CampaignOptions& copt) {
  CandidateEvaluation ev;
  ev.flow = std::make_unique<IncrementalFlow>(nl, std::move(cfg), opt);
  ev.campaign =
      ev.flow->runZoneFailureCampaign(wl, perBit, seed, detectionWindow, copt);
  return ev;
}

obs::Json IncrementalFlow::report() const {
  obs::Json j = obs::Json::object();
  j["design"] = nl_->name();
  j["design_hash"] = hashHex(flow_->designHash());
  j["graph"] = flow_->graph().report();
  j["sff"] = flow_->sff();
  j["dc"] = flow_->dc();
  j["sil"] = static_cast<int>(flow_->sil());
  j["campaign"] = lastCampaign_;
  return j;
}

}  // namespace socfmea::core
