// Fault-injection campaign walkthrough (paper Figure 4), step by step:
//
//   1. extract the sensible zones and build the injection environment
//      (observation points + diagnostic alarms) from the FMEA data,
//   2. record the Operational Profile from a fault-free workload run,
//   3. build the candidate fault list, collapse it against the profile
//      ("only faults which will produce an error"), randomise the subset,
//   4. run the lockstep campaign with SENS/OBSE/DIAG monitors,
//   5. collect coverage, classify outcomes, and cross-check the FMEA.
#include <iostream>

#include <fstream>
#include <memory>

#include "core/artifact_store.hpp"
#include "core/frmem_config.hpp"
#include "fault/fault_list.hpp"
#include "inject/analyzer.hpp"
#include "inject/delta.hpp"
#include "memsys/workloads.hpp"
#include "netlist/hash.hpp"
#include "obs/telemetry.hpp"
#include "tools/cli_common.hpp"

using namespace socfmea;

int main(int argc, char** argv) {
  // --json <path>: dump the campaign (fault-list shaping, outcome metrics,
  // coverage completeness, FMEA cross-check) as one JSON document.
  cli::CommonFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const cli::FlagStatus st =
        cli::parseCommonFlag(argc, argv, i, flags, error);
    if (st == cli::FlagStatus::Error) {
      std::cerr << error << "\n";
      return 2;
    }
    if (st == cli::FlagStatus::NotMine) {
      std::cerr << "usage: " << argv[0] << " " << cli::commonUsageSynopsis()
                << "\n"
                << cli::commonUsageDetails();
      return 2;
    }
  }
  const char* jsonPath = flags.jsonPath;
  inject::CampaignOptions copt;
  copt.engine = flags.engine;
  copt.threads = flags.threads;
  std::string storeError;
  auto storeOpt = cli::openStore(flags, storeError);
  if (!storeOpt) {
    std::cerr << storeError << "\n";
    return 2;
  }
  std::unique_ptr<core::ArtifactStore> store = std::move(*storeOpt);

  // The DUT: the v2 protection IP at gate level.
  const memsys::GateLevelDesign dut =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v2());
  core::FmeaFlow flow(dut.nl, core::makeFrmemFlowConfig(dut));
  std::cout << "DUT: " << dut.nl.name() << ", " << flow.zones().size()
            << " sensible zones\n";

  // 1. Environment builder.
  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(flow.zones(), flow.effects())
          .withSeed(42)
          .withDetectionWindow(24)
          .build();
  std::cout << "environment: " << env.targetZones.size() << " target zones, "
            << env.obsNets.size() << " observation nets, "
            << env.alarmNets.size() << " alarm nets\n\n";

  // 2. Operational profiler.
  memsys::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 1600;
  memsys::ProtectionIpWorkload workload(dut, wopt);
  const auto profile =
      inject::OperationalProfile::record(flow.zones(), workload);
  profile.print(std::cout, flow.zones(), 8);

  // 3. Candidate list -> collapser -> randomiser.
  fault::FaultList candidates = fault::allSeuFaults(dut.nl);
  fault::append(candidates, fault::allStuckAtFaults(dut.nl));
  {
    sim::Rng rng(42);
    fault::append(candidates, fault::memoryFaults(dut.nl, 0, 4, rng));
  }
  std::cout << "\ncandidate faults: " << candidates.size() << "\n";
  const std::size_t dropped =
      inject::collapseAgainstProfile(flow.zones(), profile, candidates);
  std::cout << "after collapsing (equivalences + inactive zones): "
            << candidates.size() << " (" << dropped << " dropped)\n";
  const fault::FaultList faults = inject::randomizeFaultList(
      flow.zones(), profile, candidates, 160, 42);
  std::cout << "randomised campaign list: " << faults.size() << " faults\n\n";

  // 4. The campaign: store hit when --cache-dir already holds this exact
  //    walkthrough, the in-process run (over --threads N) otherwise.  Both
  //    paths yield bit-identical records.
  inject::InjectionManager manager(dut.nl, env);
  inject::CoverageCollector coverage(manager.environment());
  inject::CampaignResult result;
  bool storeHit = false;
  const std::uint64_t campKey =
      netlist::hashMix(netlist::hashNetlist(dut.nl),
                       netlist::hashMix(faults.size(), wopt.cycles));
  if (store) {
    if (const auto art = store->load("walkthrough-campaign", campKey)) {
      const auto cache = inject::CachedCampaign::fromJson(*art);
      if (auto records = inject::bindCampaignRecords(
              cache, dut.nl, faults, flow.zones(), flow.effects())) {
        result.records = std::move(*records);
        for (const inject::InjectionRecord& rec : result.records) {
          coverage.account(rec.obs);
        }
        storeHit = true;
      }
    }
  }
  if (!storeHit) {
    result = manager.run(workload, faults, &coverage, copt);
    if (store) {
      store->save("walkthrough-campaign", campKey,
                  inject::campaignRecordsToJson(dut.nl, flow.zones(),
                                                flow.effects(), result));
    }
  }
  if (storeHit) {
    std::cout << "campaign served from " << store->dir().string()
              << " (full store hit)\n";
  }
  inject::printCampaign(std::cout, result);
  std::cout << "\n";
  coverage.print(std::cout, flow.zones());

  // 5. The table of effects per sensible zone, with the structural
  //    main/secondary classification next to each measured point.
  inject::ResultAnalyzer analyzer(flow.zones(), flow.effects());
  std::cout << "\n";
  inject::printEffectsTable(std::cout, flow.zones(), flow.effects(),
                            analyzer.effectsTable(result), 10);

  // 6. Cross-check against the FMEA sheet.
  const auto validation = analyzer.validate(flow.sheet(), result, 0.20);
  std::cout << "\n";
  inject::printValidation(std::cout, validation, 12);

  if (jsonPath != nullptr) {
    obs::Json report = obs::Json::object();
    report["schema"] = obs::Json("socfmea.injection_campaign/1");
    obs::Json fl = obs::Json::object();
    fl["candidates_after_collapse"] = obs::Json(candidates.size());
    fl["profile_dropped"] = obs::Json(dropped);
    fl["campaign_faults"] = obs::Json(faults.size());
    report["fault_list"] = std::move(fl);
    report["campaign"] = result.toJson();
    report["coverage"] = coverage.toJson();
    obs::Json v = obs::Json::object();
    v["max_delta_s"] = obs::Json(validation.maxDeltaS);
    v["max_delta_ddf"] = obs::Json(validation.maxDeltaDdf);
    v["effects_consistent"] = obs::Json(validation.effectsConsistent);
    v["pass"] = obs::Json(validation.pass);
    report["validation"] = std::move(v);
    report["telemetry"] = obs::Registry::global().toJson();

    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "cannot open " << jsonPath << " for writing\n";
      return 2;
    }
    out << report.dump(2) << "\n";
    std::cout << "\nwrote " << jsonPath << "\n";
  }

  return validation.effectsConsistent ? 0 : 1;
}
