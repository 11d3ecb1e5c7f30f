// Processing-unit case study (the paper's closing application: "fault-robust
// microcontrollers for automotive applications"): the same SoC-level FMEA
// methodology applied to a tiny CPU in three safety architectures —
//
//   plain          no mechanism: silent data corruption under SEU;
//   lockstep       dual-channel comparator (Annex A.4, DC "high");
//   lockstep+STL   plus the SW test library and a program-store CRC.
//
// The FMEA staircase is then cross-checked by fault injection: the lockstep
// comparator's measured DDF supports the claimed coverage.
#include <iostream>

#include "cpu/flow_config.hpp"
#include "cpu/tinycpu.hpp"
#include "cpu/workload.hpp"
#include "fmea/report.hpp"
#include "inject/analyzer.hpp"

using namespace socfmea;

int main() {
  std::cout << "==== the self-test program (ISS golden run) ====\n";
  cpu::TinyCpu iss(cpu::selfTestProgram());
  iss.reset();
  const auto signature = iss.run();
  std::cout << "OUT stream:";
  for (const auto v : signature) std::cout << " " << static_cast<int>(v);
  std::cout << "  (halted after the loop)\n\n";

  std::cout << "==== FMEA staircase ====\n";
  struct Arch {
    const char* name;
    cpu::CpuOptions opt;
  };
  for (const Arch& a : {Arch{"plain", cpu::CpuOptions::plain()},
                        Arch{"lockstep", cpu::CpuOptions::lockstepCpu()},
                        Arch{"lockstep+STL", cpu::CpuOptions::lockstepStl()}}) {
    const auto d = cpu::buildTinyCpu(a.opt);
    core::FmeaFlow flow(d.nl, cpu::makeCpuFlowConfig(d));
    std::cout << "  " << a.name << ": SFF " << flow.sff() * 100.0 << "%  DC "
              << flow.dc() * 100.0 << "%  -> "
              << fmea::silName(flow.sil()) << " (" << flow.zones().size()
              << " zones)\n";
  }

  std::cout << "\n==== injection cross-check on the lockstep core ====\n";
  const auto lock = cpu::buildTinyCpu(cpu::CpuOptions::lockstepCpu());
  core::FmeaFlow flow(lock.nl, cpu::makeCpuFlowConfig(lock));
  const cpu::CpuWorkload stim(lock, cpu::selfTestProgram(), 450);
  const auto env =
      inject::EnvironmentBuilder(flow.zones(), flow.effects()).build();
  inject::InjectionManager mgr(env);
  const faultsim::GoldenRun golden(flow.zones().compiledShared(), stim);
  const auto profile = inject::OperationalProfile::record(flow.zones(), golden);
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 3, 8));
  inject::printCampaign(std::cout, res);
  std::cout << "\nthe comparator catches state corruption in either channel;"
               " the residual is the\nshared fetch stream (common mode) —"
               " which is exactly what the STL's program-store\nCRC covers in"
               " the third architecture.\n";
  return 0;
}
