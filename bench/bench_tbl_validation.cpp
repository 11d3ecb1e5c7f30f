// Experiment T-VAL (paper Section 5): the four-step FMEA validation flow —
// (a) exhaustive sensible-zone failure injection cross-checked against the
// FMEA, (b) workload toggle coverage >= 99 %, (c) selective local faults on
// the critical areas + fault-simulator permanent-fault DC vs the claimed
// DDF, (d) selective wide/global faults confirming the multiple-failure
// predictions.  Ablation: serial vs bit-sliced fault simulation.
#include "bench_util.hpp"
#include "core/validation.hpp"
#include "fault/collapse.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/toggle.hpp"
#include "inject/workload.hpp"
#include "netlist/builder.hpp"

using namespace socfmea;

namespace {

void printTable() {
  benchutil::banner("T-VAL", "Section 5: validation steps a-d on v2");
  auto& f = benchutil::frmem();
  const memsys::ProtectionIpWorkload stim(f.v2,
                                         benchutil::workloadOptions(2000));
  core::ValidationOptions opt;
  opt.zoneFailuresPerBit = 1;
  const auto rep = core::runValidationFlow(f.flowV2, stim, opt);
  core::printValidationFlow(std::cout, rep);
  inject::printValidation(std::cout, rep.zoneValidation, 12);
  std::cout << "detection latency over the zone campaign: mean "
            << rep.zoneCampaign.meanDetectionLatency() << " cycles, max "
            << rep.zoneCampaign.maxDetectionLatency()
            << " cycles (process-safety-time input)\n";

  // Latent-fault degradation: the same SEU campaign with a pre-existing
  // stuck-at silencing the monitored-outputs alarm — why HFT 0 architectures
  // need the latent-fault self-test (the chk_test strobe at boot).
  {
    const auto env =
        inject::EnvironmentBuilder(f.flowV2.zones(), f.flowV2.effects())
            .withDetectionWindow(24)
            .build();
    inject::InjectionManager mgr(env);
    const faultsim::GoldenRun golden(f.flowV2.zones().compiledShared(), stim);
    const auto profile =
        inject::OperationalProfile::record(f.flowV2.zones(), golden);
    // Campaign faults: SEUs on the output registers (covered by the
    // monitored-outputs comparator in the healthy design).
    fault::FaultList seus;
    for (const auto& zf : mgr.zoneFailureFaults(profile, 2, 7)) {
      if (f.v2.nl.cell(zf.cell != netlist::kNoCell ? zf.cell : 0)
              .name.find("out/rdata_r") != std::string::npos) {
        seus.push_back(zf);
      }
    }
    const auto healthy = mgr.run(golden, seus);

    fault::Fault latent;
    latent.kind = fault::FaultKind::StuckAt0;
    latent.net = *f.v2.nl.findNet("out/alarm_out_r_q");
    inject::CampaignOptions copt;
    copt.preexisting = latent;
    const auto degraded = mgr.run(golden, seus, nullptr, copt);

    std::cout << "\nlatent-fault degradation (" << seus.size()
              << " output-register SEUs):\n"
              << "  healthy diagnostics:   measured DDF "
              << healthy.measuredDdf() * 100.0 << "%\n"
              << "  latent alarm stuck-at: measured DDF "
              << degraded.measuredDdf() * 100.0 << "%\n"
              << "expected shape: a large DDF drop — the latent fault "
                 "defeats the shadow-register\ncomparator, which is why the "
                 "boot-time chk_test strobe must prove it alive.\n";
  }
}

// Small pipelined design for the serial-vs-bitsliced ablation.
struct LogicOnly {
  netlist::Netlist n{"logic"};
  netlist::NetId rst;
  netlist::Bus a, b;

  LogicOnly() {
    netlist::Builder bl(n);
    rst = bl.input("rst");
    a = bl.inputBus("a", 16);
    b = bl.inputBus("b", 16);
    auto sum = bl.adder(a, b);
    auto q1 = bl.registerBus("s1", sum, netlist::kNoNet, rst, 0);
    auto prod = bl.xorBus(q1, bl.adder(q1, b));
    auto q2 = bl.registerBus("s2", prod, netlist::kNoNet, rst, 0);
    bl.outputBus("y", q2);
    bl.output("par", bl.reduceXor(q2));
    n.check();
  }
};

LogicOnly& logicDesign() {
  static LogicOnly d;
  return d;
}

/// The ablation's fault simulation: the logic design's primary outputs
/// watched over one stimulus trace, each machine stopped at its first
/// deviation.
struct Ablation {
  const LogicOnly& d = logicDesign();
  netlist::CompiledDesignPtr cd = netlist::compile(d.n);
  fault::FaultList faults = fault::allStuckAtFaults(d.n);
  faultsim::Watch watch = faultsim::outputWatch(d.n, d.n.primaryOutputs());
  inject::RandomWorkload stim{d.n, 128, 9, {{d.rst, false}}};

  Ablation() { fault::collapseStuckAt(d.n, faults); }
};

void BM_SerialFaultSim(benchmark::State& state) {
  const Ablation a;
  const faultsim::GoldenTrace golden =
      faultsim::recordGolden(a.cd, a.stim, a.watch);
  for (auto _ : state) {
    const auto res = faultsim::runSerialWatch(
        a.cd, a.stim, golden, a.faults, a.watch, std::nullopt,
        faultsim::RetireMode::DetectOnly);
    benchmark::DoNotOptimize(res.observations.data());
    state.counters["faults/s"] = benchmark::Counter(
        static_cast<double>(a.faults.size()), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_SerialFaultSim)->Unit(benchmark::kMillisecond);

void BM_BitslicedFaultSim(benchmark::State& state) {
  const Ablation a;
  const faultsim::GoldenRun golden(a.cd, a.stim);
  for (auto _ : state) {
    const auto res = faultsim::runBitslicedWatch(
        golden, a.faults, a.watch, std::nullopt,
        faultsim::RetireMode::DetectOnly);
    benchmark::DoNotOptimize(res.observations.data());
    state.counters["faults/s"] = benchmark::Counter(
        static_cast<double>(a.faults.size()), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_BitslicedFaultSim)->Unit(benchmark::kMillisecond);

void BM_ToggleCoverage(benchmark::State& state) {
  auto& f = benchutil::frmem();
  const netlist::CompiledDesignPtr& cd = f.flowV2.zones().compiledShared();
  const memsys::ProtectionIpWorkload stim(f.v2, benchutil::workloadOptions(800));
  for (auto _ : state) {
    const faultsim::GoldenRun golden(cd, stim);
    const auto tc = faultsim::measureToggle(golden);
    benchmark::DoNotOptimize(tc.onceFraction());
  }
}
BENCHMARK(BM_ToggleCoverage)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
