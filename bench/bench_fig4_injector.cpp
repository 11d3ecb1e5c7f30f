// Experiment FIG4 (paper Figure 4 / Section 5): the fault injector —
// environment builder, operational profiler, collapser/randomiser, lockstep
// manager, monitors (SENS/OBSE/DIAG) and coverage collection, with the
// campaign-completeness criterion ("only when all the coverage items are
// covered at 100% we can consider complete the fault injection experiment").
// Ablation: operational-profile-driven fault-list compaction vs the naive
// exhaustive list.
#include "bench_util.hpp"
#include "fault/collapse.hpp"
#include "inject/analyzer.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("FIG4", "Figure 4: injector architecture + campaign completeness");
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();
  const auto& fx = f.flowV2.effects();

  const auto env =
      inject::EnvironmentBuilder(db, fx).withDetectionWindow(24).build();
  std::cout << "environment: " << env.targetZones.size() << " target zones, "
            << env.obsNets.size() << " OBSE nets, " << env.alarmNets.size()
            << " DIAG nets, detection window " << env.detectionWindow
            << " cycles\n";

  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(1500));
  const faultsim::GoldenRun golden(db.compiledShared(), stim);
  const auto profile = inject::OperationalProfile::record(db, golden);
  std::cout << "operational profile: " << profile.totalCycles()
            << " cycles, workload completeness "
            << profile.completeness() * 100.0 << "% of zones triggered\n";

  // Ablation: naive exhaustive candidate list vs collapsed/compacted list.
  fault::FaultList naive = fault::allStuckAtFaults(f.v2.nl);
  fault::append(naive, fault::allSeuFaults(f.v2.nl));
  const std::size_t naiveSize = naive.size();
  fault::FaultList compacted = naive;
  const std::size_t dropped =
      inject::collapseAgainstProfile(db, profile, compacted);
  std::cout << "\nfault-list compaction (the Collapser): naive " << naiveSize
            << " -> collapsed " << compacted.size() << " (" << dropped
            << " dropped as unable to produce an error, plus structural"
            << " equivalences)\n";

  // Campaign on the randomised subset.
  const auto faults =
      inject::randomizeFaultList(db, profile, compacted, 220, 4);
  inject::InjectionManager mgr(env);
  inject::CoverageCollector cov(mgr.environment());
  const auto res = mgr.run(golden, faults, &cov);
  inject::printCampaign(std::cout, res);
  cov.print(std::cout, db);
  std::cout << "completeness criterion "
            << (cov.completeness() >= 0.95 ? "MET" : "NOT met")
            << " (paper requires all coverage items hit)\n";
}

void BM_CampaignThroughput(benchmark::State& state) {
  auto& f = benchutil::frmem();
  const auto& db = f.flowV2.zones();
  const auto env = inject::EnvironmentBuilder(db, f.flowV2.effects()).build();
  inject::InjectionManager mgr(env);
  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(600));
  const faultsim::GoldenRun golden(db.compiledShared(), stim);
  const auto profile = inject::OperationalProfile::record(db, golden);
  const auto faults = mgr.zoneFailureFaults(profile, 1, 4);
  const auto subset =
      fault::FaultList(faults.begin(),
                       faults.begin() + std::min<std::size_t>(32, faults.size()));
  for (auto _ : state) {
    const auto res = mgr.run(golden, subset);
    benchmark::DoNotOptimize(res.records.size());
    state.counters["injections/s"] = benchmark::Counter(
        static_cast<double>(subset.size()), benchmark::Counter::kIsRate);
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(res.cyclesSimulated), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_CampaignThroughput)->Unit(benchmark::kMillisecond);

void BM_OperationalProfile(benchmark::State& state) {
  auto& f = benchutil::frmem();
  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(600));
  const zones::ZoneDatabase& db = f.flowV2.zones();
  for (auto _ : state) {
    const faultsim::GoldenRun golden(db.compiledShared(), stim);
    const auto p = inject::OperationalProfile::record(db, golden);
    benchmark::DoNotOptimize(p.completeness());
  }
}
BENCHMARK(BM_OperationalProfile)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
