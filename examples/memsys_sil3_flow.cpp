// The paper's Section-6 narrative, end to end:
//
//   1. build the v1 memory sub-system (SEC-DED + write buffer + pipelined
//      decoder) at gate level and run the SoC-level FMEA -> SFF ~95 %,
//      short of SIL3;
//   2. read the criticality ranking (BIST control, address latching,
//      decoder blocks, write buffer, MCE bus registers);
//   3. apply the v2 measures (address-in-code, write-buffer parity,
//      post-coder checker, redundant pipeline checker, distributed
//      syndrome checking, SW start-up tests) and re-run -> SFF >= 99 %,
//      SIL3;
//   4. validate the FMEA with the fault-injection flow (steps a-d).
#include <iostream>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "fmea/iec61508.hpp"

#include "core/artifact_store.hpp"
#include "core/flow_report.hpp"
#include "core/incremental.hpp"
#include "core/srs.hpp"
#include "core/frmem_config.hpp"
#include "core/validation.hpp"
#include "memsys/workloads.hpp"
#include "obs/telemetry.hpp"
#include "tools/cli_common.hpp"

using namespace socfmea;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " " << cli::commonUsageSynopsis()
            << "\n                        [--edit <measure>]"
               " [--max-resim <fraction>]\n"
            << cli::commonUsageDetails()
            << "  --edit       v2 measure applied to the v1 baseline:"
               " none | wbuf-parity | post-coder |\n"
               "               redundant-checker | addr-in-code | v2"
               " (implies incremental mode)\n"
               "  --max-resim  fail (exit 3) when the campaign re-simulates"
               " more than this fraction\n"
               "(--cache-dir, --edit and --max-resim imply the incremental"
               " mode)\n";
  return 2;
}

/// Incremental mode: run the FMEA flow + delta campaign for the v1
/// baseline with one architectural edit applied, reusing whatever campaigns
/// the artifact store already holds from previous iterations.
int runIncremental(const char* jsonPath, const char* cacheDir,
                   const std::string& edit, double maxResim, unsigned threads,
                   faultsim::EngineKind engine) {
  memsys::GateLevelOptions gopt = memsys::GateLevelOptions::v1();
  if (!memsys::applyProtectionEdit(edit, gopt)) {
    std::cerr << "unknown --edit measure: " << edit << "\n";
    return 2;
  }
  const memsys::GateLevelDesign dut = memsys::buildProtectionIp(gopt);

  cli::CommonFlags storeFlags;
  storeFlags.cacheDir = cacheDir;
  std::string storeError;
  auto storeOpt = cli::openStore(storeFlags, storeError);
  if (!storeOpt) {
    std::cerr << storeError << "\n";
    return 2;
  }
  std::unique_ptr<core::ArtifactStore> store = std::move(*storeOpt);
  core::IncrementalOptions iopt;
  iopt.store = store.get();
  iopt.workloadTag = core::frmemWorkloadTag();
  iopt.memFaultsPerKind = core::kFrmemMemFaultsPerKind;

  core::IncrementalFlow inc(dut.nl, core::makeFrmemFlowConfig(dut), iopt);
  std::cout << "==== incremental flow: v1 + edit '" << edit << "' ====\n";
  std::cout << core::verdictLine(inc.flow()) << "\n";

  memsys::ProtectionIpWorkload workload(dut, core::frmemWorkloadOptions());
  inject::CampaignOptions copt;
  copt.engine = engine;
  copt.threads = threads;
  const core::IncrementalCampaign camp = inc.runZoneFailureCampaign(
      workload, core::kFrmemPerBit, core::kFrmemCampaignSeed,
      core::kFrmemDetectionWindow, copt);
  const double fraction =
      camp.delta.total == 0
          ? 0.0
          : static_cast<double>(camp.delta.simulated) /
                static_cast<double>(camp.delta.total);
  std::cout << "campaign: " << camp.delta.total << " faults, "
            << camp.delta.reused << " reused, " << camp.delta.simulated
            << " re-simulated (" << fraction * 100.0 << " %), "
            << camp.delta.revalidated << " revalidated"
            << (camp.fullHit    ? " [full store hit]"
                : camp.deltaRun ? " [delta run]"
                                : " [cold]")
            << "\n";

  if (jsonPath != nullptr) {
    obs::Json report = inc.report();
    report["schema"] = obs::Json("socfmea.incremental_report/1");
    report["edit"] = obs::Json(edit);
    report["sil_name"] = obs::Json(fmea::silName(inc.flow().sil()));
    report["telemetry"] = obs::Registry::global().toJson();
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "cannot open " << jsonPath << " for writing\n";
      return 2;
    }
    out << report.dump(2) << "\n";
    std::cout << "wrote " << jsonPath << "\n";
  }

  if (maxResim >= 0.0 && fraction > maxResim) {
    std::cerr << "re-simulated fraction " << fraction << " exceeds --max-resim "
              << maxResim << "\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --json <path>: also emit the whole flow as one machine-readable report
  // (the document the metrics_gate ctest diffs against the checked-in
  // golden).
  cli::CommonFlags flags;
  const char* edit = nullptr;
  double maxResim = -1.0;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const cli::FlagStatus st =
        cli::parseCommonFlag(argc, argv, i, flags, error);
    if (st == cli::FlagStatus::Error) {
      std::cerr << error << "\n";
      return 2;
    }
    if (st == cli::FlagStatus::Consumed) continue;
    if (std::strcmp(argv[i], "--edit") == 0 && i + 1 < argc) {
      edit = argv[++i];
    } else if (std::strcmp(argv[i], "--max-resim") == 0 && i + 1 < argc) {
      if (!cli::parseFraction(argv[++i], maxResim)) {
        std::cerr << "--max-resim needs a non-negative fraction\n";
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  // The store-backed flags select the incremental mode; the full
  // report below takes --engine and --threads and stays identical for the
  // CI metrics gate whatever they say.
  if (flags.cacheDir != nullptr || edit != nullptr || maxResim >= 0.0) {
    return runIncremental(flags.jsonPath, flags.cacheDir,
                          edit ? edit : "none", maxResim, flags.threads,
                          flags.engine);
  }

  std::cout << "==== step 1: first implementation (v1) ====\n";
  const memsys::GateLevelDesign v1 =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v1());
  core::FmeaFlow flowV1(v1.nl, core::makeFrmemFlowConfig(v1));
  std::cout << core::verdictLine(flowV1) << "\n";
  std::cout << "zones extracted: " << flowV1.zones().size() << "\n\n";
  fmea::printRanking(std::cout, flowV1.sheet(), 10);

  std::cout << "\n==== step 2: improved implementation (v2) ====\n";
  const memsys::GateLevelDesign v2 =
      memsys::buildProtectionIp(memsys::GateLevelOptions::v2());
  core::FmeaFlow flowV2(v2.nl, core::makeFrmemFlowConfig(v2));
  std::cout << core::verdictLine(flowV2) << "\n\n";
  fmea::printSummary(std::cout, flowV2.sheet());

  std::cout << "\n==== step 3: sensitivity (v2 must be stable) ====\n";
  fmea::printSensitivity(std::cout, flowV2.sensitivity());

  std::cout << "\n==== step 4: fault-injection validation of v2 ====\n";
  memsys::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 2000;
  memsys::ProtectionIpWorkload workload(v2, wopt);
  core::ValidationOptions vopt;
  vopt.zoneFailuresPerBit = 1;
  vopt.campaign.engine = flags.engine;
  vopt.campaign.threads = flags.threads;
  const auto rep = core::runValidationFlow(flowV2, workload, vopt);
  core::printValidationFlow(std::cout, rep);

  std::cout << "\n==== step 5: release the SRS document ====\n";
  {
    core::SrsOptions sopt;
    sopt.author = "memsys_sil3_flow example";
    const std::string srs = core::srsToString(flowV2, sopt, &rep);
    std::ofstream out("frmem_v2_srs.md");
    if (!out) {
      std::cerr << "cannot open frmem_v2_srs.md for writing\n";
      return 2;
    }
    out << srs;
    std::cout << "wrote frmem_v2_srs.md (" << srs.size()
              << " bytes): the norm's Safety Requirements Specification\n";
  }

  const bool sil3 = flowV2.sil() >= fmea::Sil::Sil3;
  std::cout << "\nfinal verdict: v2 "
            << (sil3 ? "achieves" : "DOES NOT achieve") << " SIL3 at HFT 0\n";

  if (flags.jsonPath != nullptr) {
    obs::Json report = obs::Json::object();
    report["schema"] = obs::Json("socfmea.flow_report/1");
    obs::Json v1v = obs::Json::object();
    v1v["sff"] = obs::Json(flowV1.sff());
    v1v["dc"] = obs::Json(flowV1.dc());
    v1v["sil"] = obs::Json(static_cast<int>(flowV1.sil()));
    v1v["sil_name"] = obs::Json(fmea::silName(flowV1.sil()));
    v1v["line"] = obs::Json(core::verdictLine(flowV1));
    report["v1_verdict"] = std::move(v1v);
    report["flow"] = core::flowReportJson(flowV2);
    report["validation"] = rep.toJson();
    report["sil3_pass"] = obs::Json(sil3);
    // Timing / machine-dependent counters: excluded from golden diffs.
    report["telemetry"] = obs::Registry::global().toJson();

    std::ofstream out(flags.jsonPath);
    if (!out) {
      std::cerr << "cannot open " << flags.jsonPath << " for writing\n";
      return 2;
    }
    out << report.dump(2) << "\n";
    std::cout << "wrote " << flags.jsonPath << "\n";
  }
  return sil3 ? 0 : 1;
}
