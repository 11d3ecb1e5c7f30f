// Experiment FIG2 (paper Figure 2 / Section 3): wide and global physical HW
// faults produce *multiple failures* across sensible zones.  The bench
// classifies every fault site (local/wide/global), injects wide/global
// stuck-at faults, and reports the distribution of how many zones each
// injection failed — the multiple-failure picture of Figure 2.
#include <map>

#include "bench_util.hpp"
#include "inject/manager.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("FIG2", "Figure 2: wide/global faults -> multiple zone failures");
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();

  const auto census = db.census();
  std::cout << "fault-site census over " << f.v2.nl.gateCount()
            << " gates:\n  local " << census.local << ", wide " << census.wide
            << ", global " << census.global << ", unassigned "
            << census.unassigned << "\n";

  // Wide/global stuck-at campaign, full observation (no early abort).
  const auto env = inject::EnvironmentBuilder(db, f.flowV2.effects()).build();
  inject::InjectionManager mgr(env);
  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(1000));
  const faultsim::GoldenRun golden(db.compiledShared(), stim);

  sim::Rng rng(2);
  fault::FaultList wide;
  fault::FaultList local;
  for (netlist::CellId c = 0; c < f.v2.nl.cellCount(); ++c) {
    if (!netlist::isCombinational(f.v2.nl.cell(c).type)) continue;
    const auto scope = db.classifySite(c);
    fault::Fault flt;
    flt.kind = rng.coin() ? fault::FaultKind::StuckAt0
                          : fault::FaultKind::StuckAt1;
    flt.cell = c;
    flt.net = f.v2.nl.cell(c).output;
    if (flt.net == netlist::kNoNet) continue;
    if (scope == zones::FaultScope::Wide && wide.size() < 40 && rng.chance(0.2)) {
      wide.push_back(flt);
    }
    if (scope == zones::FaultScope::Local && local.size() < 40 && rng.chance(0.05)) {
      local.push_back(flt);
    }
  }

  inject::CampaignOptions opt;
  opt.earlyAbort = false;
  const auto runHisto = [&](const char* name, const fault::FaultList& faults) {
    const auto res = mgr.run(golden, faults, nullptr, opt);
    std::map<std::size_t, std::size_t> histo;
    std::size_t multi = 0;
    for (const auto& r : res.records) {
      ++histo[r.obs.zonesDeviated.size()];
      if (r.obs.zonesDeviated.size() > 1) ++multi;
    }
    std::cout << "\n" << name << " (" << faults.size() << " injections):"
              << " zones-failed histogram ->";
    for (const auto& [k, v] : histo) std::cout << "  " << k << "z:" << v;
    std::cout << "\n  multiple-zone failures: " << multi << " ("
              << (faults.empty() ? 0.0
                                 : 100.0 * static_cast<double>(multi) /
                                       static_cast<double>(faults.size()))
              << "%)\n";
  };
  runHisto("LOCAL fault sites", local);
  runHisto("WIDE fault sites", wide);

  // Global: the reset-class critical net stuck active.
  fault::FaultList global;
  for (const auto& z : db.zones()) {
    if (z.kind != zones::ZoneKind::CriticalNet) continue;
    fault::Fault flt;
    flt.kind = fault::FaultKind::StuckAt1;
    flt.net = z.valueNets.front();
    const auto drv = f.v2.nl.net(flt.net).driver;
    if (drv != netlist::kNoCell) flt.cell = drv;
    global.push_back(flt);
  }
  runHisto("GLOBAL fault sites (critical nets stuck-1)", global);
  std::cout << "\nexpected shape: the multiple-failure fraction grows from "
               "local to wide to global\nsites (local failures that spread do "
               "so via secondary-effect migration, the\nFigure 3 mechanism; "
               "wide/global faults fail several zones at the source).\n";
}

void BM_SiteClassification(benchmark::State& state) {
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.census());
  }
}
BENCHMARK(BM_SiteClassification)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
