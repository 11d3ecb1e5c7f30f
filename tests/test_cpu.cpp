// Tests for the processing-unit case study: the ISA/ISS, the gate-level
// core's cycle-accurate equivalence with the ISS (co-simulation property),
// the lockstep comparator behaviour under injected faults, and the FMEA of
// the three safety architectures.
#include <gtest/gtest.h>

#include "cpu/flow_config.hpp"
#include "cpu/tinycpu.hpp"
#include "cpu/workload.hpp"
#include "inject/manager.hpp"
#include "sim/simulator.hpp"

namespace cp = socfmea::cpu;
namespace fs = socfmea::faultsim;
namespace sm = socfmea::sim;
namespace nl = socfmea::netlist;
using socfmea::fmea::Sil;

// ---------------------------------------------------------------------------
// ISA / ISS
// ---------------------------------------------------------------------------

TEST(IsaTest, EncodeDecodeRoundTrip) {
  const auto i = cp::encode(cp::Op::Add, 3);
  EXPECT_EQ(cp::opOf(i), cp::Op::Add);
  EXPECT_EQ(cp::operandOf(i), 3);
  EXPECT_EQ(cp::disassemble(i), "add r3");
  EXPECT_EQ(cp::disassemble(cp::encode(cp::Op::Jnz, 4)), "jnz 16");
  EXPECT_EQ(cp::disassemble(cp::encode(cp::Op::Ldi, 9)), "ldi 9");
}

TEST(IsaTest, PadProgramFillsWithHalt) {
  const auto p = cp::padProgram({cp::encode(cp::Op::Nop)});
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(cp::opOf(p[63]), cp::Op::Halt);
}

TEST(TinyCpuTest, ArithmeticAndFlags) {
  std::vector<std::uint8_t> p{
      cp::encode(cp::Op::Ldi, 5),   // acc = 5
      cp::encode(cp::Op::Sta, 0),   // r0 = 5
      cp::encode(cp::Op::Sub, 0),   // acc = 0, Z set
      cp::encode(cp::Op::Out),
      cp::encode(cp::Op::Halt),
  };
  cp::TinyCpu cpu(p);
  cpu.reset();
  const auto outs = cpu.run();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], 0u);
  EXPECT_TRUE(cpu.zflag());
  EXPECT_TRUE(cpu.halted());
}

TEST(TinyCpuTest, BranchTakenAndNotTaken) {
  // counter = 2; loop: dec, JNZ back; two iterations then fall through.
  std::vector<std::uint8_t> p{
      cp::encode(cp::Op::Ldi, 2),  // 0: acc = 2
      cp::encode(cp::Op::Sta, 0),  // 1: r0 = 2
      cp::encode(cp::Op::Ldi, 1),  // 2: acc = 1
      cp::encode(cp::Op::Sta, 1),  // 3: r1 = 1
      cp::encode(cp::Op::Lda, 0),  // 4: loop: acc = r0
      cp::encode(cp::Op::Sub, 1),  // 5: acc -= 1
      cp::encode(cp::Op::Sta, 0),  // 6: r0 = acc
      cp::encode(cp::Op::Out),     // 7: publish
      cp::encode(cp::Op::Jnz, 1),  // 8: if !Z goto 4
      cp::encode(cp::Op::Halt),
  };
  cp::TinyCpu cpu(p);
  cpu.reset();
  const auto outs = cpu.run();
  EXPECT_EQ(outs, (std::vector<std::uint8_t>{1, 0}));
}

TEST(TinyCpuTest, SelfTestProgramTerminatesWithSignature) {
  cp::TinyCpu cpu(cp::selfTestProgram());
  cpu.reset();
  const auto outs = cpu.run();
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(outs.size(), 9u);  // 8 loop iterations + the final signature
  // Deterministic signature stream (regression value).
  EXPECT_EQ(outs.back(), cpu.reg(2));
}

// ---------------------------------------------------------------------------
// gate-level vs ISS co-simulation
// ---------------------------------------------------------------------------

namespace {

// Steps the gate-level design and the ISS in lockstep; compares acc/pc/out
// after every EXEC cycle.
void cosim(const cp::CpuOptions& opt, const std::vector<std::uint8_t>& prog,
           std::uint64_t cycles) {
  const cp::CpuDesign d = cp::buildTinyCpu(opt);
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, prog, cycles);
  sm::Simulator sim(cd);
  cp::TinyCpu iss(prog);
  iss.reset();

  for (std::uint64_t c = 0; c < cycles; ++c) {
    stim.apply(sim, c);
    sim.evalComb();
    sim.clockEdge();
    // After reset (2 cycles), odd cycles are EXEC edges: c=2 FETCH, c=3 EXEC.
    if (c >= 3 && (c - 3) % 2 == 0) {
      iss.stepInstruction();
      ASSERT_EQ(sim.busValue(d.core0.pc), iss.pc()) << "cycle " << c;
      ASSERT_EQ(sim.busValue(d.core0.acc), iss.acc()) << "cycle " << c;
      ASSERT_EQ(sim.busValue(d.core0.out), iss.out()) << "cycle " << c;
      if (iss.halted()) break;
    }
  }
}

}  // namespace

TEST(CpuGateLevelTest, CosimSelfTestProgram) {
  cosim(cp::CpuOptions::plain(), cp::selfTestProgram(), 500);
}

TEST(CpuGateLevelTest, CosimRandomPrograms) {
  // Random (but branch-free) programs: every opcode mix must match the ISS.
  sm::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> p;
    for (int i = 0; i < 40; ++i) {
      const cp::Op ops[] = {cp::Op::Nop, cp::Op::Ldi,  cp::Op::Ldhi,
                            cp::Op::Add, cp::Op::Sub,  cp::Op::Sta,
                            cp::Op::Lda, cp::Op::Xorr, cp::Op::Out};
      p.push_back(cp::encode(ops[rng.below(9)],
                             static_cast<std::uint8_t>(rng.below(16))));
    }
    p.push_back(cp::encode(cp::Op::Halt));
    cosim(cp::CpuOptions::plain(), p, 200);
  }
}

TEST(CpuGateLevelTest, LockstepChannelsAgreeFaultFree) {
  const cp::CpuDesign d = cp::buildTinyCpu(cp::CpuOptions::lockstepCpu());
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, cp::selfTestProgram(), 400);
  sm::Simulator sim(cd);
  const auto alarm = *d.nl.findNet("lockchk/alarm_r_q");
  for (std::uint64_t c = 0; c < 400; ++c) {
    stim.apply(sim, c);
    sim.evalComb();
    EXPECT_NE(sim.value(alarm), sm::Logic::L1) << "spurious lockstep alarm";
    sim.clockEdge();
  }
}

TEST(CpuGateLevelTest, LockstepComparatorCatchesSeu) {
  const cp::CpuDesign d = cp::buildTinyCpu(cp::CpuOptions::lockstepCpu());
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, cp::selfTestProgram(), 400);
  sm::Simulator sim(cd);
  const auto alarm = *d.nl.findNet("lockchk/alarm_r_q");
  const auto victim = *d.nl.findCell("cpu1/acc_3");
  bool alarmed = false;
  for (std::uint64_t c = 0; c < 400; ++c) {
    stim.apply(sim, c);
    if (c == 40) sim.flipFf(victim);  // SEU in the checker channel
    sim.evalComb();
    if (sim.value(alarm) == sm::Logic::L1) alarmed = true;
    sim.clockEdge();
  }
  EXPECT_TRUE(alarmed);
}

TEST(CpuGateLevelTest, PlainCoreSeuGoesUnnoticed) {
  // The same SEU on the single-channel design corrupts the OUT stream with
  // no alarm anywhere — the motivation for lockstep.
  const cp::CpuDesign d = cp::buildTinyCpu(cp::CpuOptions::plain());
  EXPECT_TRUE(d.alarmNames.empty());
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, cp::selfTestProgram(), 400);

  const auto outsOf = [&](bool inject) {
    sm::Simulator sim(cd);
    std::vector<std::uint64_t> outs;
    for (std::uint64_t c = 0; c < 400; ++c) {
      stim.apply(sim, c);
      if (inject && c == 40) sim.flipFf(*d.nl.findCell("cpu0/acc_3"));
      sim.evalComb();
      outs.push_back(sim.busValue(d.core0.out));
      sim.clockEdge();
    }
    return outs;
  };
  EXPECT_NE(outsOf(false), outsOf(true));  // silent data corruption
}

// ---------------------------------------------------------------------------
// FMEA of the three architectures
// ---------------------------------------------------------------------------

TEST(CpuFmeaTest, LockstepLiftsSffIntoSil3Band) {
  const auto plain = cp::buildTinyCpu(cp::CpuOptions::plain());
  const auto lock = cp::buildTinyCpu(cp::CpuOptions::lockstepCpu());
  const auto lockStl = cp::buildTinyCpu(cp::CpuOptions::lockstepStl());

  socfmea::core::FmeaFlow fPlain(plain.nl, cp::makeCpuFlowConfig(plain));
  socfmea::core::FmeaFlow fLock(lock.nl, cp::makeCpuFlowConfig(lock));
  socfmea::core::FmeaFlow fStl(lockStl.nl, cp::makeCpuFlowConfig(lockStl));

  EXPECT_LT(fPlain.sff(), 0.80);             // bare CPU: nowhere near SIL3
  EXPECT_GT(fLock.sff(), fPlain.sff() + 0.10);
  // Lockstep alone is NOT enough: the uncovered program store dominates the
  // residual.  Only the STL (+ ROM CRC) closes it — the layered-safety story.
  EXPECT_GT(fStl.sff(), fLock.sff() + 0.03);
  EXPECT_LT(fPlain.sil(), Sil::Sil2);
  EXPECT_GT(fStl.sil(), fLock.sil());
  EXPECT_GE(fStl.sil(), Sil::Sil2);
}

TEST(CpuFmeaTest, InjectionConfirmsComparatorCoverage) {
  const auto lock = cp::buildTinyCpu(cp::CpuOptions::lockstepCpu());
  socfmea::core::FmeaFlow flow(lock.nl, cp::makeCpuFlowConfig(lock));
  const cp::CpuWorkload stim(lock, cp::selfTestProgram(), 400);
  const fs::GoldenRun golden(flow.zones().compiledShared(), stim);

  const auto env = socfmea::inject::EnvironmentBuilder(flow.zones(),
                                                       flow.effects())
                       .withDetectionWindow(8)
                       .build();
  socfmea::inject::InjectionManager mgr(env);
  const auto profile =
      socfmea::inject::OperationalProfile::record(flow.zones(), golden);
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 2, 6));
  // Nearly every dangerous state flip must be annunciated by the comparator.
  EXPECT_GT(res.measuredDdf(), 0.90);
  EXPECT_GT(res.measuredSff(), 0.90);
}

TEST(CpuFmeaTest, PlainCpuInjectionShowsUndetectedFailures) {
  const auto plain = cp::buildTinyCpu(cp::CpuOptions::plain());
  socfmea::core::FmeaFlow flow(plain.nl, cp::makeCpuFlowConfig(plain));
  const cp::CpuWorkload stim(plain, cp::selfTestProgram(), 400);
  const fs::GoldenRun golden(flow.zones().compiledShared(), stim);

  const auto env = socfmea::inject::EnvironmentBuilder(flow.zones(),
                                                       flow.effects())
                       .build();
  socfmea::inject::InjectionManager mgr(env);
  const auto profile =
      socfmea::inject::OperationalProfile::record(flow.zones(), golden);
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 2, 6));
  EXPECT_GT(res.count(socfmea::inject::Outcome::DangerousUndetected), 0u);
}

TEST(CpuFmeaTest, BranchConditionLogicalEntityExtracted) {
  // The paper's Section-3 example of a logical-entity zone: "wrong
  // conditional field of a conditional instruction".
  const auto d = cp::buildTinyCpu(cp::CpuOptions::lockstepCpu());
  socfmea::core::FmeaFlow flow(d.nl, cp::makeCpuFlowConfig(d));
  const auto z = flow.zones().findZone("cpu0/branch_condition");
  ASSERT_TRUE(z.has_value());
  const auto& zone = flow.zones().zone(*z);
  EXPECT_EQ(zone.kind, socfmea::zones::ZoneKind::LogicalEntity);
  EXPECT_EQ(zone.ffs.size(), 1u);  // the Z flag flip-flop
  // The entity appears in the FMEA with its own rows and comparator claim.
  bool hasRow = false;
  for (const auto& r : flow.sheet().rows()) {
    if (r.zoneName == "cpu0/branch_condition") {
      hasRow = true;
      EXPECT_EQ(r.component, socfmea::fmea::ComponentClass::ProcessingUnit);
    }
  }
  EXPECT_TRUE(hasRow);
}

TEST(CpuGateLevelTest, CosimRandomBranchyPrograms) {
  // Random programs including JMP/JNZ with quadword-aligned targets: the
  // branch unit must match the ISS exactly (bounded by the cycle budget;
  // infinite loops are fine — both machines loop identically).
  sm::Rng rng(123);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint8_t> p;
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t roll = rng.below(12);
      if (roll < 8) {
        const cp::Op ops[] = {cp::Op::Ldi, cp::Op::Ldhi, cp::Op::Add,
                              cp::Op::Sub, cp::Op::Sta,  cp::Op::Lda,
                              cp::Op::Xorr, cp::Op::Out};
        p.push_back(cp::encode(ops[rng.below(8)],
                               static_cast<std::uint8_t>(rng.below(16))));
      } else if (roll < 10) {
        p.push_back(cp::encode(cp::Op::Jnz,
                               static_cast<std::uint8_t>(rng.below(15))));
      } else {
        p.push_back(cp::encode(cp::Op::Jmp,
                               static_cast<std::uint8_t>(rng.below(15))));
      }
    }
    cosim(cp::CpuOptions::plain(), p, 300);
  }
}
