// Shared helpers for the experiment benches: each bench binary prints the
// table/series its paper artefact reports, then runs its google-benchmark
// timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/frmem_config.hpp"
#include "memsys/workloads.hpp"

namespace benchutil {

/// Cached flows for the two reference implementations (building them is
/// seconds of work; every bench reuses the same instances).
struct Frmem {
  socfmea::memsys::GateLevelDesign v1 =
      socfmea::memsys::buildProtectionIp(socfmea::memsys::GateLevelOptions::v1());
  socfmea::memsys::GateLevelDesign v2 =
      socfmea::memsys::buildProtectionIp(socfmea::memsys::GateLevelOptions::v2());
  socfmea::core::FmeaFlow flowV1{v1.nl, socfmea::core::makeFrmemFlowConfig(v1)};
  socfmea::core::FmeaFlow flowV2{v2.nl, socfmea::core::makeFrmemFlowConfig(v2)};
};

inline Frmem& frmem() {
  static Frmem f;
  return f;
}

inline socfmea::memsys::ProtectionIpWorkload::Options workloadOptions(
    std::uint64_t cycles = 2000) {
  socfmea::memsys::ProtectionIpWorkload::Options o;
  o.cycles = cycles;
  return o;
}

inline void banner(const char* experiment, const char* paperArtefact) {
  std::cout << "\n================================================================\n"
            << "experiment " << experiment << " — " << paperArtefact << "\n"
            << "================================================================\n";
}

/// Emits the table then runs the registered google-benchmark timings.
inline int runBench(int argc, char** argv, void (*printTable)()) {
  printTable();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace benchutil
