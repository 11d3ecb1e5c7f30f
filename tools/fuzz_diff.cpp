// fuzz_diff: the differential fuzzing driver.
//
//   fuzz_diff --seed <S> --runs <N> [--shrink] [--out <dir>] [--threads <T>]
//             [--sabotage <engine>/<mode>] [--quiet]
//     Generates N random (design, stimulus, fault-plan) cases from the
//     campaign seed S and runs each through the differential oracle: the
//     serial and bit-sliced fault-sim engines under both event-driven and
//     full-settle evaluation must agree fault-for-fault (the bit-sliced
//     event-driven arm runs over --threads T, default all cores), both
//     engines' campaign mode must record identical observations over a
//     watch of every flip-flop and output, the golden traces of both
//     modes must match, and the design must
//     survive a .snl round-trip.  On a failure the case number and seed are
//     printed (re-run any single case with the same --seed and --runs to
//     reproduce); with --shrink the failing case is delta-debugged and the
//     minimal repro is written to <dir>/repro-<case>.nl / .plan.
//
//     --sabotage injects a deliberate verdict-flipping bug into one engine
//     (e.g. --sabotage bitsliced/full-settle) to exercise the oracle and
//     shrinker pipeline end to end.
//
//   fuzz_diff --replay <design.nl> <plan.plan> [--threads <T>]
//     Re-runs the oracle on a saved repro pair.
//
//   fuzz_diff --cpu <N> [--seed <S>] [same oracle flags as above]
//     CPU-scenario mode: the first cases are the mitigation scenario
//     registry's gate-level designs (cpu/scenarios.hpp) verbatim; the rest
//     are random transformable tinycpu programs run through a random
//     mitigation pass on a random safety architecture.  Each case gets a
//     reset-then-run stimulus plus a random fault plan over the design and
//     goes through the same cross-engine oracle.
//
//   fuzz_diff --pin-corpus <dir>
//     Writes the curated CPU corpus anchors (scenario design + targeted
//     SEU plan pairs) used by tests/corpus/.
//
//   Exit codes: 0 all cases agree, 1 oracle failure, 2 usage/IO error
//   (including a malformed numeric value: --seed, --runs, --cpu and
//   --threads take strict base-10 unsigned integers, --threads at most
//   1024).
//
//   SOCFMEA_TEST_SEED overrides --seed (the same campaign-seed override the
//   gtest suites honour).
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "cpu/mitigations.hpp"
#include "cpu/scenarios.hpp"
#include "cpu/tinycpu.hpp"
#include "fault/fault.hpp"
#include "testkit/cpu_program.hpp"
#include "tools/cli_common.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "testkit/shrink.hpp"

namespace {

using namespace socfmea;

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t runs = 100;
  std::uint64_t cpuRuns = 0;  ///< --cpu N: CPU-scenario mode
  bool shrink = false;
  bool quiet = false;
  unsigned threads = 0;
  std::string outDir = ".";
  std::string replayNl;
  std::string replayPlan;
  std::string pinDir;  ///< --pin-corpus: write the curated CPU anchors
  testkit::Sabotage sabotage;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "fuzz_diff: " << msg << "\n";
  std::cerr
      << "usage: fuzz_diff --seed <S> --runs <N> [--shrink] [--out <dir>]\n"
         "                 [--threads <T>] [--sabotage <engine>/<mode>]"
         " [--quiet]\n"
         "       fuzz_diff --replay <design.nl> <plan.plan> [--threads <T>]\n"
         "       fuzz_diff --cpu <N> [--seed <S>] [oracle flags as above]\n"
         "       fuzz_diff --pin-corpus <dir>\n"
         "  --threads T: 0 (all cores, the default) to 1024\n";
  std::exit(2);
}

/// A numeric flag with a malformed value: one diagnostic line, exit 2.
[[noreturn]] void badValue(const std::string& flag, const char* expected) {
  std::cerr << "fuzz_diff: " << flag << " needs " << expected << "\n";
  std::exit(2);
}

testkit::Sabotage parseSabotage(const std::string& spec) {
  const auto slash = spec.find('/');
  const std::string engine = spec.substr(0, slash);
  const std::string mode =
      slash == std::string::npos ? "full-settle" : spec.substr(slash + 1);
  testkit::Sabotage s;
  if (engine == "serial") {
    s.engine = testkit::Sabotage::Engine::Serial;
  } else if (engine == "bitsliced") {
    s.engine = testkit::Sabotage::Engine::Bitsliced;
  } else {
    usage("unknown sabotage engine (serial|bitsliced)");
  }
  if (mode == "event-driven") {
    s.mode = sim::EvalMode::EventDriven;
  } else if (mode == "full-settle") {
    s.mode = sim::EvalMode::FullSettle;
  } else {
    usage("unknown sabotage mode (event-driven|full-settle)");
  }
  return s;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      if (!cli::parseUnsigned(value(i).c_str(), a.seed)) {
        badValue(arg, "an unsigned value");
      }
    } else if (arg == "--runs") {
      if (!cli::parseUnsigned(value(i).c_str(), a.runs)) {
        badValue(arg, "an unsigned case count");
      }
    } else if (arg == "--threads") {
      if (!cli::parseThreadCount(value(i).c_str(), a.threads)) {
        badValue(arg, "a thread count from 0 to 1024");
      }
    } else if (arg == "--out") {
      a.outDir = value(i);
    } else if (arg == "--shrink") {
      a.shrink = true;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--sabotage") {
      a.sabotage = parseSabotage(value(i));
    } else if (arg == "--replay") {
      a.replayNl = value(i);
      if (i + 1 >= argc) usage("--replay needs <design.nl> <plan.plan>");
      a.replayPlan = argv[++i];
    } else if (arg == "--cpu") {
      if (!cli::parseUnsigned(value(i).c_str(), a.cpuRuns)) {
        badValue(arg, "an unsigned case count");
      }
    } else if (arg == "--pin-corpus") {
      a.pinDir = value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option '" + arg + "'").c_str());
    }
  }
  std::uint64_t env = 0;
  if (testkit::envSeed(&env)) a.seed = env;
  return a;
}

int replay(const Args& a) {
  testkit::OracleOptions opt;
  opt.threads = a.threads;
  opt.sabotage = a.sabotage;
  try {
    const auto repro = testkit::loadRepro(a.replayNl, a.replayPlan);
    const auto report = testkit::runOracle(repro.design, repro.plan, opt);
    std::cout << "replay " << a.replayNl << ": " << report.summary() << "\n";
    return report.pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fuzz_diff: " << e.what() << "\n";
    return 2;
  }
}

int fuzz(const Args& a) {
  testkit::OracleOptions opt;
  opt.threads = a.threads;
  opt.sabotage = a.sabotage;
  std::uint64_t failures = 0;
  for (std::uint64_t run = 0; run < a.runs; ++run) {
    const std::uint64_t caseSeed = testkit::derivedSeed(a.seed, run);
    sim::Rng rng(caseSeed);
    const auto genOpt = testkit::randomOptions(rng);
    const auto nl = testkit::generateNetlist(genOpt, rng);
    const auto planOpt = testkit::randomPlanOptions(rng);
    auto plan = testkit::generatePlan(nl, planOpt, rng);
    plan.name = "case" + std::to_string(run);

    const auto report = testkit::runOracle(nl, plan, opt);
    if (report.pass) {
      if (!a.quiet && (run + 1) % 50 == 0) {
        std::cout << "  ..." << (run + 1) << "/" << a.runs << " cases agree\n";
      }
      continue;
    }
    ++failures;
    std::cout << "FAIL case " << run << " (campaign seed " << a.seed
              << ", case seed " << caseSeed << ", " << nl.cellCount()
              << " cells, " << plan.faults.size() << " faults)\n"
              << report.summary() << "\n";
    if (a.shrink) {
      testkit::ShrinkOptions sopt;
      sopt.oracle = opt;
      const auto shrunk = testkit::shrinkFailure(nl, plan, sopt);
      std::filesystem::create_directories(a.outDir);
      const std::string base = a.outDir + "/repro-" + std::to_string(run);
      testkit::writeRepro(base + ".nl", base + ".plan", shrunk.design,
                          shrunk.plan);
      std::cout << "  shrunk " << shrunk.cellsBefore << "->"
                << shrunk.cellsAfter << " cells, " << shrunk.faultsBefore
                << "->" << shrunk.faultsAfter << " faults, "
                << shrunk.cyclesBefore << "->" << shrunk.cyclesAfter
                << " cycles (" << shrunk.oracleCalls << " oracle calls)\n"
                << "  repro: " << base << ".nl " << base << ".plan\n";
    }
  }
  if (failures == 0) {
    std::cout << "fuzz_diff: " << a.runs << " cases, all "
              << "engine/mode combinations agree (campaign seed " << a.seed
              << ")\n";
    return 0;
  }
  std::cout << "fuzz_diff: " << failures << "/" << a.runs << " cases FAILED\n";
  return 1;
}

/// Reset for two cycles on every primary input (the tinycpu designs have
/// only `rst`), then let the program run.
void resetThenRun(testkit::TestPlan& plan) {
  for (std::size_t c = 0; c < plan.cycles(); ++c) {
    plan.stim.values[c].assign(plan.stim.inputs.size(), c < 2);
  }
}

/// Gate-level cycle budget for a program image (reset, two cycles per
/// retired instruction, alarm slack) — mirrors the scenario registry's.
std::uint64_t cpuCycleBudget(const std::vector<std::uint8_t>& image) {
  cpu::TinyCpu iss(image);
  iss.reset();
  (void)iss.run(4096);
  return 2 + 2 * static_cast<std::uint64_t>(iss.instructionsRetired()) + 48;
}

int cpuFuzz(const Args& a) {
  testkit::OracleOptions opt;
  opt.threads = a.threads;
  opt.sabotage = a.sabotage;
  const auto& registry = cpu::scenarios::all();
  std::uint64_t failures = 0;
  for (std::uint64_t run = 0; run < a.cpuRuns; ++run) {
    const std::uint64_t caseSeed = testkit::derivedSeed(a.seed, run);
    sim::Rng rng(caseSeed);

    // The first cases are the scenario registry verbatim; after that,
    // random transformable programs x mitigation x safety architecture.
    cpu::CpuOptions co;
    std::string name;
    if (run < registry.size()) {
      co = registry[run].design;
      name = "cpu-scenario-" + registry[run].name;
    } else {
      const std::vector<std::uint8_t> source = testkit::randomProgram(rng);
      constexpr cpu::SwMitigation kMitigations[] = {
          cpu::SwMitigation::None, cpu::SwMitigation::Tmr,
          cpu::SwMitigation::Dwc, cpu::SwMitigation::Cfcss};
      const cpu::SwMitigation m = kMitigations[rng.below(4)];
      const std::size_t arch = rng.below(3);
      co.lockstep = arch != 0;
      co.skewCycles = arch == 2 ? 1 : 0;
      co.fallback = arch == 2;
      co.trap = m == cpu::SwMitigation::Dwc ||
                m == cpu::SwMitigation::Cfcss || rng.coin();
      co.minimalObs = true;
      co.program = m == cpu::SwMitigation::None
                       ? source
                       : cpu::transformProgram(source, m).image;
      name = "cpu-case" + std::to_string(run);
    }
    const cpu::CpuDesign d = cpu::buildTinyCpu(co);

    testkit::PlanOptions planOpt = testkit::randomPlanOptions(rng);
    planOpt.cycles = cpuCycleBudget(co.program);
    testkit::TestPlan plan = testkit::generatePlan(d.nl, planOpt, rng);
    plan.name = name;
    resetThenRun(plan);

    const auto report = testkit::runOracle(d.nl, plan, opt);
    if (report.pass) {
      if (!a.quiet && (run + 1) % 10 == 0) {
        std::cout << "  ..." << (run + 1) << "/" << a.cpuRuns
                  << " cpu cases agree\n";
      }
      continue;
    }
    ++failures;
    std::cout << "FAIL cpu case " << run << " (" << name << ", campaign seed "
              << a.seed << ", case seed " << caseSeed << ", "
              << d.nl.cellCount() << " cells, " << plan.faults.size()
              << " faults)\n"
              << report.summary() << "\n";
    if (a.shrink) {
      testkit::ShrinkOptions sopt;
      sopt.oracle = opt;
      const auto shrunk = testkit::shrinkFailure(d.nl, plan, sopt);
      std::filesystem::create_directories(a.outDir);
      const std::string base = a.outDir + "/repro-cpu-" + std::to_string(run);
      testkit::writeRepro(base + ".nl", base + ".plan", shrunk.design,
                          shrunk.plan);
      std::cout << "  repro: " << base << ".nl " << base << ".plan\n";
    }
  }
  if (failures == 0) {
    std::cout << "fuzz_diff: " << a.cpuRuns << " cpu cases, all "
              << "engine/mode combinations agree (campaign seed " << a.seed
              << ")\n";
    return 0;
  }
  std::cout << "fuzz_diff: " << failures << "/" << a.cpuRuns
            << " cpu cases FAILED\n";
  return 1;
}

int pinCorpus(const Args& a) {
  struct Anchor {
    const char* file;
    const char* scenario;
    const char* cell;      ///< SEU target flip-flop
    std::uint64_t cycle;
  };
  // One DWC store-compare upset and one CFCSS PC upset: the two mitigation
  // mechanisms' characteristic detections, pinned as corpus anchors.
  constexpr Anchor kAnchors[] = {
      {"cpu-dwc-r0-seu", "dwc", "cpu0/r0_0", 31},
      {"cpu-cfcss-pc-seu", "cfcss", "cpu0/pc_2", 20},
  };
  std::filesystem::create_directories(a.pinDir);
  for (const Anchor& an : kAnchors) {
    const cpu::scenarios::Scenario* s = cpu::scenarios::find(an.scenario);
    if (s == nullptr) {
      std::cerr << "fuzz_diff: scenario '" << an.scenario << "' missing\n";
      return 2;
    }
    const cpu::CpuDesign d = cpu::buildTinyCpu(s->design);
    testkit::TestPlan plan;
    plan.name = an.file;
    plan.stim = faultsim::StimulusTrace(d.nl, s->cycles);
    resetThenRun(plan);
    fault::Fault f;
    f.kind = fault::FaultKind::SeuFlip;
    const auto cell = d.nl.findCell(an.cell);
    if (!cell) {
      std::cerr << "fuzz_diff: cell '" << an.cell << "' missing\n";
      return 2;
    }
    f.cell = *cell;
    f.net = d.nl.cell(*cell).output;
    f.cycle = an.cycle;
    plan.faults.push_back(f);

    const std::string base = a.pinDir + "/" + std::string(an.file);
    testkit::writeRepro(base + ".nl", base + ".plan", d.nl, plan);
    // The anchor must replay clean through every engine/mode combo before
    // it is worth pinning.
    const auto repro = testkit::loadRepro(base + ".nl", base + ".plan");
    const auto report = testkit::runOracle(repro.design, repro.plan, {});
    std::cout << an.file << ": " << report.summary() << "\n";
    if (!report.pass) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  try {
    if (!a.pinDir.empty()) return pinCorpus(a);
    if (a.cpuRuns > 0) return cpuFuzz(a);
    return a.replayNl.empty() ? fuzz(a) : replay(a);
  } catch (const std::exception& e) {
    std::cerr << "fuzz_diff: " << e.what() << "\n";
    return 2;
  }
}
