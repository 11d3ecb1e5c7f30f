// Experiment FIG1 (paper Figure 1 / Section 3): the sensible zone — "one of
// the elementary failure points of the SoC in which one or more faults
// converge to lead [to] a failure" — demonstrated by extracting zones and
// their converging cones, and showing how distinct physical faults in one
// cone all manifest as the same zone failure.
#include "bench_util.hpp"
#include "faultsim/serial.hpp"
#include "zones/extract.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("FIG1", "Figure 1: faults converging into sensible zones");
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();

  std::cout << "zone decomposition of " << f.v2.nl.name() << " ("
            << db.size() << " zones):\n";
  std::cout << "  zone                              kind           cone-gates"
               "  support-ffs  width\n";
  std::size_t shown = 0;
  for (const auto& z : db.zones()) {
    if (z.kind != zones::ZoneKind::Register &&
        z.kind != zones::ZoneKind::Memory) {
      continue;
    }
    if (shown++ >= 14) break;
    std::printf("  %-33s %-14s %9zu  %10zu  %5zu\n", z.name.substr(0, 32).c_str(),
                std::string(zones::zoneKindName(z.kind)).c_str(),
                z.stats.gateCount, z.stats.supportFfs, z.width());
  }

  // Demonstrate convergence: distinct stuck-at faults in the cone of one
  // zone, all observed as a failure of that zone.
  const auto zid = db.findZone("dec/s1_syn");
  if (zid) {
    const auto& z = db.zone(*zid);
    const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(400));
    sim::Simulator sim(db.compiledShared());
    // Golden zone trace.
    std::vector<std::uint64_t> golden;
    (void)faultsim::runMachine(sim, stim, nullptr, nullptr,
                               [&](const sim::Simulator& s, std::uint64_t) {
                                 golden.push_back(s.busValue(z.valueNets));
                                 return false;
                               });
    std::size_t converged = 0;
    std::size_t tried = 0;
    for (std::size_t gi = 0; gi < z.cone.gates.size() && tried < 24; gi += 7) {
      ++tried;
      fault::Fault flt;
      flt.kind = fault::FaultKind::StuckAt1;
      flt.cell = z.cone.gates[gi];
      flt.net = f.v2.nl.cell(flt.cell).output;
      // Faulty run, stopped at the zone's first deviation.
      bool deviated = false;
      (void)faultsim::runMachine(
          sim, stim, nullptr, &flt,
          [&](const sim::Simulator& s, std::uint64_t c) {
            deviated = s.busValue(z.valueNets) != golden[c];
            return deviated;
          });
      if (deviated) ++converged;
    }
    std::cout << "\nconvergence demo on zone 'dec/s1_syn' (cone of "
              << z.cone.gates.size() << " gates): " << converged << "/"
              << tried << " sampled cone stuck-at faults manifested as a"
              << " failure of the zone\n";
  }
}

void BM_FaninCone(benchmark::State& state) {
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();
  const auto zid = db.findZone("dec/s1_code");
  const auto& z = db.zone(*zid);
  const netlist::CompiledDesign& cd = *db.compiledShared();
  for (auto _ : state) {
    const auto cone = netlist::faninCone(cd, z.coneRoots);
    benchmark::DoNotOptimize(cone.gates.size());
  }
}
BENCHMARK(BM_FaninCone)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
