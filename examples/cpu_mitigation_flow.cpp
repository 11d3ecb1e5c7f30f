// cpu_mitigation_flow: the software-mitigation scenario suite end to end.
//
//   cpu_mitigation_flow [--scenario <name>] [--json <path>] [--records]
//                       [--engine serial|bitsliced|auto] [--threads <T>]
//                       [--per-bit <N>] [--seed <S>]
//
// Runs every scenario of cpu::scenarios::all() (or just --scenario) through
// the full flow — FMEA analysis, profile-guided zone-failure fault list,
// injection campaign — and prints the HW-vs-SW comparison table: analytic
// SFF/DC/SIL next to the measured SFF/DDF of each mitigation, all against
// the unprotected baseline.  --threads T runs each campaign over T threads
// (0 = all cores, at most 1024).  Unlike the other campaign CLIs, --engine
// auto at one thread still runs the serial oracle here: a temporary
// exception in cpu::scenarios::runScenario that waits on a benchmark-harness
// fix; any other thread count runs the bit-sliced engine.  --records dumps
// every injection record for cross-engine debugging.  A malformed or
// out-of-range numeric value exits 2 with a one-line diagnostic.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cpu/scenarios.hpp"
#include "fault/fault.hpp"
#include "fmea/iec61508.hpp"
#include "tools/cli_common.hpp"

using namespace socfmea;
namespace sc = cpu::scenarios;

namespace {

/// Largest --per-bit value, like --threads' cli::kMaxThreads.  A larger
/// count only draws repeat injection cycles, which the manager folds, and
/// an unbounded one would size the fault list past any memory.
constexpr std::uint64_t kMaxPerBit = 1024;

struct Args {
  std::string scenario;  // empty = all
  std::string jsonPath;
  bool records = false;
  sc::RunOptions run;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "cpu_mitigation_flow: " << msg << "\n";
  std::cerr << "usage: cpu_mitigation_flow [--scenario <name>] [--json <path>]"
               " [--records]\n"
               "                           [--engine serial|bitsliced|auto]"
               " [--threads <T>]\n"
               "                           [--per-bit <N>] [--seed <S>]\n"
               "  --threads T: 0 (all cores) to 1024, default 1\n"
               "  --per-bit N: 1 to 1024, default 2\n"
               "scenarios:";
  for (const auto& s : sc::all()) std::cerr << " " << s.name;
  std::cerr << "\n";
  std::exit(2);
}

/// A numeric flag with a malformed value: one diagnostic line, exit 2.
[[noreturn]] void badValue(const std::string& flag, const char* expected) {
  std::cerr << "cpu_mitigation_flow: " << flag << " needs " << expected << "\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario") {
      a.scenario = value(i);
    } else if (arg == "--json") {
      a.jsonPath = value(i);
    } else if (arg == "--records") {
      a.records = true;
    } else if (arg == "--engine") {
      const auto k = faultsim::engineKindFromName(value(i));
      if (!k) usage("unknown engine (serial|bitsliced|auto)");
      a.run.campaign.engine = *k;
    } else if (arg == "--threads") {
      if (!cli::parseThreadCount(value(i).c_str(), a.run.campaign.threads)) {
        badValue(arg, "a thread count from 0 to 1024");
      }
    } else if (arg == "--per-bit") {
      std::uint64_t n = 0;
      if (!cli::parseUnsigned(value(i).c_str(), n) || n == 0 ||
          n > kMaxPerBit) {
        badValue(arg, "a positive count of at most 1024");
      }
      a.run.perBit = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!cli::parseUnsigned(value(i).c_str(), a.run.seed)) {
        badValue(arg, "an unsigned value");
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option '" + arg + "'").c_str());
    }
  }
  return a;
}

void printRow(const sc::Scenario& s, const sc::ScenarioResult& r,
              const sc::ScenarioResult* baseline) {
  std::cout << "  " << std::left << std::setw(16) << s.name << std::right
            << std::fixed << std::setprecision(1) << std::setw(6)
            << r.analysisSff * 100.0 << "%" << std::setw(6)
            << r.analysisDc * 100.0 << "%  " << std::left << std::setw(5)
            << fmea::silName(r.sil) << std::right << std::setw(6)
            << r.measuredSff * 100.0 << "%" << std::setw(6)
            << r.measuredDdf * 100.0 << "%" << std::setw(6) << r.faults;
  if (baseline) {
    const double gain = r.measuredSff - baseline->measuredSff;
    std::cout << "  " << std::showpos << std::setprecision(1) << gain * 100.0
              << "%" << std::noshowpos;
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);

  std::vector<const sc::Scenario*> selected;
  if (a.scenario.empty()) {
    for (const auto& s : sc::all()) selected.push_back(&s);
  } else {
    const auto* s = sc::find(a.scenario);
    if (!s) usage(("unknown scenario '" + a.scenario + "'").c_str());
    selected.push_back(s);
  }

  std::cout << "==== software-mitigation scenario suite (per-bit "
            << a.run.perBit << ", seed " << a.run.seed << ") ====\n"
            << "  scenario          aSFF   aDC  SIL    mSFF  mDDF faults"
               "  vs-base\n";

  // The baseline always runs (the comparison column and the verdicts need
  // it), even when --scenario selects a single protected scenario.
  const sc::ScenarioResult baseline = sc::runScenario(sc::all()[0], a.run);

  auto jScenarios = obs::Json::array();
  bool allOk = true;
  for (const auto* s : selected) {
    const sc::ScenarioResult r =
        s == &sc::all()[0] ? baseline : sc::runScenario(*s, a.run);
    printRow(*s, r, s == &sc::all()[0] ? nullptr : &baseline);
    const bool ok = sc::verdictOk(*s, r, baseline);
    allOk = allOk && ok;
    auto j = r.toJson();
    j["mitigation"] = std::string(cpu::swMitigationName(s->mitigation));
    j["verdict_ok"] = ok;
    j["min_sff_gain"] = s->minSffGain;
    jScenarios.push_back(j);
    if (a.records) {
      for (std::size_t i = 0; i < r.campaign.merged.records.size(); ++i) {
        const auto& rec = r.campaign.merged.records[i];
        std::cout << "    record " << i << ": "
                  << fault::faultKindName(rec.fault.kind) << " net "
                  << rec.fault.net << " cell " << rec.fault.cell << " cycle "
                  << rec.fault.cycle << " -> "
                  << inject::outcomeName(rec.outcome) << "\n";
      }
    }
  }

  std::cout << (allOk ? "\nall scenario verdicts OK\n"
                      : "\nVERDICT FAILURE (see table)\n");

  if (!a.jsonPath.empty()) {
    auto doc = obs::Json::object();
    doc["schema"] = std::string("socfmea.example.cpu_mitigation_flow/1");
    doc["per_bit"] = static_cast<std::uint64_t>(a.run.perBit);
    doc["seed"] = a.run.seed;
    doc["threads"] = static_cast<std::uint64_t>(a.run.campaign.threads);
    doc["scenarios"] = jScenarios;
    std::ofstream out(a.jsonPath);
    if (!out) {
      std::cerr << "cpu_mitigation_flow: cannot write " << a.jsonPath << "\n";
      return 2;
    }
    out << doc.dump(2) << "\n";
  }
  return allOk ? 0 : 1;
}
