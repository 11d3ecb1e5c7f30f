// Closed-loop architecture search over the protection IP: starts from the
// paper's v1 baseline, reads the measured criticality ranking, proposes
// additive checkers / policies against the top zones, scores every
// candidate with a delta campaign over one shared warm store, and walks
// the SFF-vs-gate-cost frontier until the SIL3 margin holds.
//
//   arch_search --cache-dir /tmp/store --json search.json
//   arch_search --budget 200000 --target-sff 0.9938 --threads 4
//
// Exit codes: 0 target reached (and, unless --no-verify, the winner's cold
// flat re-run was bit-identical), 1 search fell short, 2 usage error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "obs/telemetry.hpp"
#include "search/search.hpp"
#include "tools/cli_common.hpp"

using namespace socfmea;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " " << cli::commonUsageSynopsis()
            << "\n                   [--budget <faults>] [--target-sff <f>]"
               " [--seed <S>] [--rounds <N>]\n"
               "                   [--beam <W>] [--candidates <K>]"
               " [--no-verify]\n"
            << cli::commonUsageDetails()
            << "  --budget     campaign budget: total faults re-simulated"
               " across all candidates (0 = unlimited)\n"
               "  --target-sff stop once the best hybrid SFF reaches this"
               " (default 0.9938, the paper v2 envelope)\n"
               "  --seed       proposal tie-breaking seed\n"
               "  --rounds     beam-search round cap (default 16)\n"
               "  --beam       beam width (default 3)\n"
               "  --no-verify  skip the final cold flat bit-identity"
               " re-run\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cli::CommonFlags flags;
  unsigned budget = 0;
  double targetSff = 0.9938;
  unsigned seed = 1;
  unsigned rounds = 16;
  unsigned beam = 3;
  unsigned candidates = 6;
  bool verify = true;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const cli::FlagStatus st =
        cli::parseCommonFlag(argc, argv, i, flags, error);
    if (st == cli::FlagStatus::Error) {
      std::cerr << error << "\n";
      return 2;
    }
    if (st == cli::FlagStatus::Consumed) continue;
    if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      if (!cli::parseUnsigned(argv[++i], budget)) {
        std::cerr << "--budget needs an unsigned fault count\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--target-sff") == 0 && i + 1 < argc) {
      if (!cli::parseFraction(argv[++i], targetSff) || targetSff > 1.0) {
        std::cerr << "--target-sff needs a fraction in [0, 1]\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!cli::parseUnsigned(argv[++i], seed)) {
        std::cerr << "--seed needs an unsigned value\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      if (!cli::parseUnsigned(argv[++i], rounds)) {
        std::cerr << "--rounds needs an unsigned value\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--beam") == 0 && i + 1 < argc) {
      if (!cli::parseUnsigned(argv[++i], beam) || beam == 0) {
        std::cerr << "--beam needs a positive width\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--candidates") == 0 && i + 1 < argc) {
      if (!cli::parseUnsigned(argv[++i], candidates) || candidates == 0) {
        std::cerr << "--candidates needs a positive count\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else {
      return usage(argv[0]);
    }
  }

  std::string storeError;
  auto storeOpt = cli::openStore(flags, storeError);
  if (!storeOpt) {
    std::cerr << storeError << "\n";
    return 2;
  }
  std::unique_ptr<core::ArtifactStore> store = std::move(*storeOpt);

  search::SearchOptions sopt;
  sopt.store = store.get();
  sopt.targetSff = targetSff;
  sopt.faultBudget = budget;
  sopt.seed = seed;
  sopt.beamWidth = beam;
  sopt.maxRounds = rounds;
  sopt.candidatesPerRound = candidates;
  sopt.threads = flags.threads;
  sopt.engine = flags.engine;
  sopt.verifyFinal = verify;
  sopt.log = [](const std::string& line) { std::cout << line << "\n"; };

  std::cout << "==== architecture search: v1 baseline -> SIL3 margin ====\n";
  search::ArchitectureSearch searcher(sopt);
  const search::SearchResult res = searcher.run();

  std::cout << "\nbest architecture: " << res.best.id << "\n"
            << "  hybrid SFF " << res.best.hybridSff << " (analytic "
            << res.best.analyticSff << ", measured " << res.best.measuredSff
            << "), +" << res.best.gateCost << " GE\n"
            << "search: " << res.evaluated.size() << " candidates over "
            << res.rounds << " rounds, " << res.faultsSimulated << "/"
            << res.faultsTotal << " faults simulated (reuse ratio "
            << res.reuseRatio << ")\n"
            << "target " << targetSff
            << (res.targetReached ? " reached" : " NOT reached")
            << (res.budgetExhausted ? " [budget exhausted]" : "") << "\n";
  if (verify) {
    std::cout << "bit-identity vs cold flat run: "
              << (res.verifiedIdentical ? "identical" : "MISMATCH") << " ("
              << res.verifiedRecords << " records)\n";
  }
  std::cout << "pareto frontier (gate cost -> hybrid SFF):\n";
  for (const search::CandidateScore& c : res.pareto) {
    std::cout << "  +" << c.gateCost << " GE  " << c.hybridSff << "  "
              << c.id << "\n";
  }

  if (flags.jsonPath != nullptr) {
    obs::Json report = obs::Json::object();
    report["schema"] = obs::Json("socfmea.arch_search/1");
    report["target_sff"] = obs::Json(targetSff);
    report["search"] = res.toJson();
    report["telemetry"] = obs::Registry::global().toJson();
    std::ofstream out(flags.jsonPath);
    if (!out) {
      std::cerr << "cannot open " << flags.jsonPath << " for writing\n";
      return 2;
    }
    out << report.dump(2) << "\n";
    std::cout << "wrote " << flags.jsonPath << "\n";
  }

  const bool ok = res.targetReached && (!verify || res.verifiedIdentical);
  return ok ? 0 : 1;
}
