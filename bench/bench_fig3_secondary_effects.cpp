// Experiment FIG3 (paper Figure 3 / Section 3): a single local fault fails
// one sensible zone, but its effect "manifests itself at different
// observation points" — the main effect plus secondary effects reached
// through other zones.  The bench compares the structural main/secondary
// prediction against the measured effects table of a zone-failure campaign.
#include "bench_util.hpp"
#include "inject/analyzer.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("FIG3", "Figure 3: main vs secondary effects per zone");
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();
  const auto& fx = f.flowV2.effects();

  // Structural prediction summary.
  std::cout << "structural prediction (register/memory zones):\n"
            << "  zone                              main-effects  secondary\n";
  std::size_t shown = 0;
  for (const auto& z : db.zones()) {
    if (z.kind != zones::ZoneKind::Register &&
        z.kind != zones::ZoneKind::Memory) {
      continue;
    }
    if (shown++ >= 12) break;
    std::printf("  %-33s %12zu  %9zu\n", z.name.substr(0, 32).c_str(),
                fx.mainEffects(z.id).size(), fx.secondaryEffects(z.id).size());
  }

  // Measured effects table from a zone-failure campaign.
  const auto env =
      inject::EnvironmentBuilder(db, fx).withDetectionWindow(24).build();
  inject::InjectionManager mgr(env);
  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(1200));
  const faultsim::GoldenRun golden(db.compiledShared(), stim);
  const auto profile = inject::OperationalProfile::record(db, golden);
  inject::CampaignOptions copt;
  copt.earlyAbort = false;  // observe the full effect migration
  const auto res =
      mgr.run(golden, mgr.zoneFailureFaults(profile, 1, 3), nullptr, copt);

  inject::ResultAnalyzer analyzer(db, fx);
  const auto table = analyzer.effectsTable(res);
  std::size_t consistent = 0;
  std::size_t violations = 0;
  std::size_t multiPoint = 0;
  for (const auto& e : table) {
    if (e.observedAt.size() > 1) ++multiPoint;
    const auto& predicted = fx.effectsOf(e.zone);
    for (const auto p : e.observedAt) {
      if (predicted[p] != zones::EffectClass::None) {
        ++consistent;
      } else {
        ++violations;
      }
    }
  }
  std::cout << "\nmeasured effects table (" << res.records.size()
            << " injections, " << table.size() << " zones with effects):\n"
            << "  zones whose failure reached multiple observation points: "
            << multiPoint << "\n"
            << "  observed (zone, point) pairs consistent with prediction: "
            << consistent << "\n"
            << "  violations (would require new FMEA lines): " << violations
            << "\n";
  std::cout << "expected shape: many zones show secondary effects at points "
               "beyond their\nmain effect; zero (or near-zero) violations.\n";
}

void BM_EffectsModelBuild(benchmark::State& state) {
  auto& f = benchutil::frmem();
  for (auto _ : state) {
    const zones::EffectsModel fx(f.flowV2.zones(), f.v2.alarmNames);
    benchmark::DoNotOptimize(fx.pointCount());
  }
}
BENCHMARK(BM_EffectsModelBuild)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
