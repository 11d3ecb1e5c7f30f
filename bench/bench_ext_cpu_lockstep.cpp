// Extension experiment EXT-CPU (beyond the paper's Section 6, toward its
// stated application: "the complete analysis of fault-robust
// microcontrollers for automotive applications"): the methodology applied
// to a processing unit in three safety architectures, with the measured
// (injected) safe-failure picture next to the analytical one.
#include "bench_util.hpp"
#include "cpu/flow_config.hpp"
#include "cpu/workload.hpp"
#include "inject/analyzer.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("EXT-CPU",
                    "extension: fault-robust microcontroller staircase");

  std::cout << "  architecture     SFF(analytic)  DC        SIL@HFT0  "
               "SIL@HFT1  SFF(injected)  DDF(injected)\n";
  struct Arch {
    const char* name;
    cpu::CpuOptions opt;
    unsigned hft;  // a true dual channel can claim HFT 1 (1oo2)
  };
  for (const Arch& a :
       {Arch{"plain", cpu::CpuOptions::plain(), 0},
        Arch{"lockstep", cpu::CpuOptions::lockstepCpu(), 1},
        Arch{"lockstep+STL", cpu::CpuOptions::lockstepStl(), 1}}) {
    const auto d = cpu::buildTinyCpu(a.opt);
    core::FmeaFlow flow(d.nl, cpu::makeCpuFlowConfig(d));
    cpu::CpuWorkload wl(d, cpu::selfTestProgram(), 450);
    const auto env =
        inject::EnvironmentBuilder(flow.zones(), flow.effects())
            .withSeed(9)
            .build();
    inject::InjectionManager mgr(d.nl, env);
    const auto profile =
        inject::OperationalProfile::record(flow.zones(), wl);
    // The injection manager's campaign — the same path the scenario suite
    // (bench_cpu_mitigations) uses.
    const auto res = mgr.run(wl, mgr.zoneFailureFaults(profile, 2, 9));
    const auto silHft1 =
        fmea::silFromSff(flow.sff(), a.hft, fmea::ElementType::TypeB);
    std::printf("  %-15s %9.2f%%  %8.2f%%   %-9s %-9s %9.2f%%  %12.2f%%\n",
                a.name, flow.sff() * 100.0, flow.dc() * 100.0,
                std::string(fmea::silName(flow.sil())).c_str(),
                a.hft == 0 ? "n/a"
                           : std::string(fmea::silName(silHft1)).c_str(),
                res.measuredSff() * 100.0, res.measuredDdf() * 100.0);
  }
  std::cout
      << "\nexpected shape: a staircase in both columns.  The comparator\n"
         "lifts runtime detection; the STL + ROM CRC close the common-mode\n"
         "program-store residual.  Read through the norm's second route: the\n"
         "dual-channel core is a 1oo2 structure (HFT 1), where SFF > 90%\n"
         "grants SIL3 — the paper's Section-2 quote (the injected columns\n"
         "are identical for the last two rows because the STL acts at boot,\n"
         "outside the runtime campaign).\n";
}

void BM_CpuCosimCycle(benchmark::State& state) {
  const auto d = cpu::buildTinyCpu(cpu::CpuOptions::lockstepCpu());
  cpu::CpuWorkload wl(d, cpu::selfTestProgram(), 450);
  sim::Simulator sim(d.nl);
  wl.restart();
  sim.reset();
  std::uint64_t c = 0;
  for (auto _ : state) {
    wl.drive(sim, c % 450);
    wl.backdoor(sim, c % 450);
    sim.evalComb();
    sim.clockEdge();
    ++c;
    state.counters["cycles/s"] =
        benchmark::Counter(1, benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_CpuCosimCycle);

void BM_CpuFmea(benchmark::State& state) {
  const auto d = cpu::buildTinyCpu(cpu::CpuOptions::lockstepStl());
  const auto cfg = cpu::makeCpuFlowConfig(d);
  for (auto _ : state) {
    core::FmeaFlow flow(d.nl, cfg);
    benchmark::DoNotOptimize(flow.sff());
  }
}
BENCHMARK(BM_CpuFmea)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
