// Tests for the software-mitigation suite: the program transformers
// (TMR / DWC / CFCSS) as ISS-level property tests with fault drills, the
// gate-level scenario designs against the ISS (differential oracle), the
// lockstep comparator's skew window, and the scenario registry end to end
// through core::FmeaFlow — including cross-engine verdict identity
// (serial vs bit-sliced at one and two threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/mitigations.hpp"
#include "faultsim/serial.hpp"
#include "cpu/scenarios.hpp"
#include "cpu/tinycpu.hpp"
#include "cpu/workload.hpp"
#include "sim/simulator.hpp"
#include "testkit/cpu_program.hpp"
#include "testkit/oracle.hpp"
#include "testkit/shrink.hpp"

namespace cp = socfmea::cpu;
namespace sc = socfmea::cpu::scenarios;
namespace sm = socfmea::sim;
namespace tk = socfmea::testkit;

namespace {

// Fault-drill forks can lengthen loops (a corrupted counter walks the full
// 8-bit range); the budget must dominate 256 iterations of any transformed
// loop body.
constexpr std::size_t kRunBudget = 100000;

std::vector<std::uint8_t> goldenOuts(const std::vector<std::uint8_t>& image) {
  cp::TinyCpu iss(image);
  iss.reset();
  return iss.run(kRunBudget);
}

// Machine snapshots taken immediately after every retired instruction that
// satisfies `site` — the "at rest" drill points of the SEU property tests.
template <typename Pred>
std::vector<cp::TinyCpu> snapshotsAfter(const std::vector<std::uint8_t>& image,
                                        Pred site) {
  std::vector<cp::TinyCpu> points;
  cp::TinyCpu m(image);
  m.reset();
  for (std::size_t i = 0; i < kRunBudget && !m.halted(); ++i) {
    const std::uint8_t instr = image[m.pc()];
    m.stepInstruction();
    if (site(cp::opOf(instr), cp::operandOf(instr))) points.push_back(m);
  }
  return points;
}

bool isPrefixOf(const std::vector<std::uint8_t>& a,
                const std::vector<std::uint8_t>& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

// ---------------------------------------------------------------------------
// transform machinery
// ---------------------------------------------------------------------------

TEST(MitigationsTest, NamesRoundTrip) {
  for (const auto m : {cp::SwMitigation::None, cp::SwMitigation::Tmr,
                       cp::SwMitigation::Dwc, cp::SwMitigation::Cfcss}) {
    const auto n = cp::swMitigationName(m);
    const auto back = cp::swMitigationFromName(n);
    ASSERT_TRUE(back.has_value()) << n;
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(cp::swMitigationFromName("ecc").has_value());
}

TEST(MitigationsTest, KernelIsContractCleanWithThreeBlocks) {
  const auto kernel = sc::kernelProgram();
  std::string why;
  EXPECT_TRUE(cp::checkTransformable(kernel, &why)) << why;
  EXPECT_EQ(cp::basicBlockLeaders(kernel),
            (std::vector<std::size_t>{0, 4, 7}));
  EXPECT_EQ(goldenOuts(cp::padProgram(kernel)),
            (std::vector<std::uint8_t>{3, 2, 1, 0}));
}

TEST(MitigationsTest, ContractViolationsRejected) {
  using cp::encode;
  using cp::Op;
  const auto rejects = [](std::vector<std::uint8_t> p) {
    std::string why;
    const bool ok = cp::checkTransformable(p, &why);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(why.empty());
    EXPECT_THROW((void)cp::transformProgram(p, cp::SwMitigation::Dwc),
                 cp::TransformError);
  };
  rejects({});                                             // empty
  rejects({encode(Op::Ldi, 1)});                           // no final HALT
  rejects({encode(Op::Sta, 1), encode(Op::Halt)});         // non-r0 register
  rejects({encode(Op::Nop), encode(Op::Jnz, 0),            // JNZ without a
           encode(Op::Halt)});                             // Z-setter
  rejects({encode(Op::Lda, 0), encode(Op::Jnz, 8),         // target outside
           encode(Op::Halt)});                             // the program
  rejects({encode(Op::Trap), encode(Op::Halt)});           // TRAP in source
  rejects({encode(static_cast<Op>(0xB), 0), encode(Op::Halt)});  // undefined
  // A branch may not land on a JNZ: its Z flag belongs to the in-block
  // predecessor and the transforms clobber Z between source instructions.
  rejects({encode(Op::Jmp, 1), encode(Op::Nop), encode(Op::Nop),
           encode(Op::Xorr, 0), encode(Op::Jnz, 0), encode(Op::Halt)});
}

TEST(MitigationsTest, TransformedKernelsFitTheProgramSpace) {
  const auto kernel = sc::kernelProgram();
  for (const auto m : {cp::SwMitigation::None, cp::SwMitigation::Tmr,
                       cp::SwMitigation::Dwc, cp::SwMitigation::Cfcss}) {
    const auto t = cp::transformProgram(kernel, m);
    EXPECT_EQ(t.image.size(), std::size_t{1} << cp::kProgAddrBits);
    EXPECT_LE(t.stats.emittedInstructions, t.image.size());
    EXPECT_EQ(t.stats.sourceInstructions, kernel.size());
    if (m != cp::SwMitigation::None) {
      EXPECT_GT(t.stats.checks, 0u);
    }
    EXPECT_EQ(t.stats.blocks, m == cp::SwMitigation::Cfcss ? 3u : 0u);
  }
}

TEST(MitigationsTest, OversizedTransformThrows) {
  // 12 voted reads expand past the 64-word program space under TMR (7
  // instructions per vote) and DWC (4 per compare+load, plus the pairs).
  std::vector<std::uint8_t> p;
  for (int i = 0; i < 12; ++i) {
    p.push_back(cp::encode(cp::Op::Sta, 0));
    p.push_back(cp::encode(cp::Op::Lda, 0));
  }
  p.push_back(cp::encode(cp::Op::Halt));
  std::string why;
  ASSERT_TRUE(cp::checkTransformable(p, &why)) << why;
  EXPECT_THROW((void)cp::transformProgram(p, cp::SwMitigation::Tmr),
               cp::TransformError);
  EXPECT_THROW((void)cp::transformProgram(p, cp::SwMitigation::Dwc),
               cp::TransformError);
}

// ---------------------------------------------------------------------------
// ISS equivalence: transformed programs preserve the OUT stream
// ---------------------------------------------------------------------------

TEST(MitigationsTest, TransformsPreserveKernelOutputs) {
  const auto kernel = sc::kernelProgram();
  const auto golden = goldenOuts(cp::padProgram(kernel));
  for (const auto m : {cp::SwMitigation::Tmr, cp::SwMitigation::Dwc,
                       cp::SwMitigation::Cfcss}) {
    const auto t = cp::transformProgram(kernel, m);
    cp::TinyCpu iss(t.image);
    iss.reset();
    EXPECT_EQ(iss.run(kRunBudget), golden) << cp::swMitigationName(m);
    EXPECT_TRUE(iss.halted());
    EXPECT_FALSE(iss.trapped()) << cp::swMitigationName(m);
  }
}

TEST(MitigationsTest, TransformsPreserveRandomProgramOutputs) {
  sm::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = tk::randomProgram(rng);
    const auto golden = goldenOuts(cp::padProgram(p));
    for (const auto m : {cp::SwMitigation::Tmr, cp::SwMitigation::Dwc,
                         cp::SwMitigation::Cfcss}) {
      const auto t = cp::transformProgram(p, m);
      cp::TinyCpu iss(t.image);
      iss.reset();
      ASSERT_EQ(iss.run(kRunBudget), golden)
          << "trial " << trial << " " << cp::swMitigationName(m);
      ASSERT_TRUE(iss.halted());
      ASSERT_FALSE(iss.trapped());
    }
  }
}

// ---------------------------------------------------------------------------
// ISS fault drills: SEUs on architectural state between instructions
// ---------------------------------------------------------------------------

TEST(MitigationsTest, TmrMasksRegisterSeuAtRest) {
  const auto kernel = sc::kernelProgram();
  const auto t = cp::transformProgram(kernel, cp::SwMitigation::Tmr);
  const auto golden = goldenOuts(t.image);

  // Drill points: immediately after each completed store triple (STA r2 is
  // its last instruction and appears nowhere else in the TMR image).
  const auto points = snapshotsAfter(t.image, [](cp::Op op, std::uint8_t n) {
    return op == cp::Op::Sta && n == 2;
  });
  ASSERT_FALSE(points.empty());
  for (const auto& at : points) {
    for (std::size_t reg : {0u, 1u, 2u}) {
      for (unsigned bit : {0u, 2u, 5u}) {
        cp::TinyCpu fork = at;
        fork.flipReg(reg, bit);
        EXPECT_EQ(fork.run(kRunBudget), golden)
            << "r" << reg << " bit " << bit;
        EXPECT_TRUE(fork.halted());
        EXPECT_FALSE(fork.trapped());
      }
    }
  }

  // Potency contrast: the same at-rest SEU on the unprotected kernel
  // corrupts the OUT stream for at least one drill point.
  const auto plain = cp::padProgram(kernel);
  const auto goldenPlain = goldenOuts(plain);
  bool corrupted = false;
  for (const auto& at : snapshotsAfter(plain, [](cp::Op op, std::uint8_t n) {
         return op == cp::Op::Sta && n == 0;
       })) {
    cp::TinyCpu fork = at;
    fork.flipReg(0, 0);
    if (fork.run(kRunBudget) != goldenPlain) corrupted = true;
  }
  EXPECT_TRUE(corrupted);
}

TEST(MitigationsTest, DwcDetectsRegisterSeuAtRest) {
  const auto t =
      cp::transformProgram(sc::kernelProgram(), cp::SwMitigation::Dwc);
  const auto golden = goldenOuts(t.image);

  // Drill points: after each completed store pair (STA r1 is its last
  // instruction; the DWC scratch register is r2, never r1).
  const auto points = snapshotsAfter(t.image, [](cp::Op op, std::uint8_t n) {
    return op == cp::Op::Sta && n == 1;
  });
  ASSERT_FALSE(points.empty());
  std::size_t detected = 0;
  for (const auto& at : points) {
    for (std::size_t reg : {0u, 1u}) {
      for (unsigned bit : {0u, 4u}) {
        cp::TinyCpu fork = at;
        fork.flipReg(reg, bit);
        const auto outs = fork.run(kRunBudget);
        if (fork.trapped()) {
          // Detect-then-stop: the compare fires before the corrupted value
          // reaches the OUT port.
          EXPECT_TRUE(isPrefixOf(outs, golden));
          ++detected;
        } else {
          // Only a flip past the register's last use may go unannunciated —
          // and then it must be harmless.
          EXPECT_TRUE(fork.halted());
          EXPECT_EQ(outs, golden);
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
}

TEST(MitigationsTest, CfcssCatchesWildControlFlowEdges) {
  const auto kernel = sc::kernelProgram();
  const auto t = cp::transformProgram(kernel, cp::SwMitigation::Cfcss);
  const std::size_t span = t.stats.emittedInstructions;
  const auto golden = goldenOuts(t.image);

  // Exhaustive single-bit PC SEUs at every instruction boundary, classified
  // as detected (TRAP), benign (golden OUT stream, clean halt) or escaped.
  const auto drill = [](const std::vector<std::uint8_t>& image,
                        const std::vector<std::uint8_t>& want,
                        std::size_t tailStart, std::size_t* escaped,
                        std::size_t* detected, std::size_t* sites) {
    std::vector<cp::TinyCpu> states;
    cp::TinyCpu m(image);
    m.reset();
    states.push_back(m);
    for (std::size_t i = 0; i < kRunBudget && !m.halted(); ++i) {
      m.stepInstruction();
      if (!m.halted()) states.push_back(m);
    }
    for (const auto& at : states) {
      for (unsigned bit = 0; bit < cp::kProgAddrBits; ++bit) {
        cp::TinyCpu fork = at;
        fork.flipPc(bit);
        const bool landedInTail = fork.pc() >= tailStart;
        const auto outs = fork.run(kRunBudget);
        ++*sites;
        if (fork.trapped()) {
          ++*detected;
          continue;
        }
        if (landedInTail && tailStart < 64) {
          ADD_FAILURE() << "wild edge into the trap-filled tail (pc "
                        << unsigned(fork.pc()) << ") did not trap";
        }
        if (!(fork.halted() && outs == want)) ++*escaped;
      }
    }
  };

  std::size_t cfEscaped = 0, cfDetected = 0, cfSites = 0;
  drill(t.image, golden, span, &cfEscaped, &cfDetected, &cfSites);
  EXPECT_GT(cfDetected, 0u);

  // The unprotected image under the identical drill (tail is HALT fill, so
  // wild edges land silently — pass 64 to skip the must-trap assertion).
  const auto plain = cp::padProgram(kernel);
  std::size_t unEscaped = 0, unDetected = 0, unSites = 0;
  drill(plain, goldenOuts(plain), 64, &unEscaped, &unDetected, &unSites);
  EXPECT_EQ(unDetected, 0u);  // nothing can annunciate

  // The signature checks must convert escapes into detections: strictly
  // lower escape *rate* than the unprotected program (the CFCSS image has
  // more flip sites, so rates, not counts).
  ASSERT_GT(cfSites, 0u);
  ASSERT_GT(unSites, 0u);
  const double cfRate = double(cfEscaped) / double(cfSites);
  const double unRate = double(unEscaped) / double(unSites);
  EXPECT_LT(cfRate, unRate);
}

// ---------------------------------------------------------------------------
// gate level: scenario designs vs the ISS, trap alarm, skewed comparator
// ---------------------------------------------------------------------------

namespace fs = socfmea::faultsim;
namespace nl = socfmea::netlist;

namespace {

nl::NetId alarmNet(const cp::CpuDesign& d, const std::string& alarm) {
  if (alarm == "alarm_lock") return *d.nl.findNet("lockchk/alarm_r_q");
  if (alarm == "alarm_trap") return *d.nl.findNet("trapchk/alarm_q");
  throw std::logic_error("unknown alarm " + alarm);
}

}  // namespace

TEST(ScenarioGateLevelTest, DesignsMatchIssFaultFreeWithQuietAlarms) {
  for (const auto& s : sc::all()) {
    SCOPED_TRACE(s.name);
    const cp::CpuDesign d = cp::buildTinyCpu(s.design);
    const nl::CompiledDesignPtr cd = nl::compile(d.nl);
    const cp::CpuWorkload stim(d, s.design.program, s.cycles);
    sm::Simulator sim(cd);
    cp::TinyCpu iss(s.design.program);
    iss.reset();

    std::vector<nl::NetId> alarms;
    for (const auto& a : s.expectedAlarms) alarms.push_back(alarmNet(d, a));

    for (std::uint64_t c = 0; c < s.cycles; ++c) {
      stim.apply(sim, c);
      sim.evalComb();
      for (const auto a : alarms) {
        ASSERT_NE(sim.value(a), sm::Logic::L1)
            << "spurious alarm at cycle " << c;
      }
      sim.clockEdge();
      if (c >= 3 && (c - 3) % 2 == 0) {
        iss.stepInstruction();
        ASSERT_EQ(sim.busValue(d.core0.pc), iss.pc()) << "cycle " << c;
        ASSERT_EQ(sim.busValue(d.core0.acc), iss.acc()) << "cycle " << c;
        ASSERT_EQ(sim.busValue(d.core0.out), iss.out()) << "cycle " << c;
        if (iss.halted()) break;
      }
    }
    // The fault-free transformed run reproduces the source kernel's stream.
    EXPECT_EQ(iss.outs(), goldenOuts(cp::padProgram(s.sourceProgram)));
    EXPECT_FALSE(iss.trapped());
  }
}

TEST(ScenarioGateLevelTest, DwcRegisterSeuRaisesStickyTrapAlarm) {
  const sc::Scenario* s = sc::find("dwc");
  ASSERT_NE(s, nullptr);
  const cp::CpuDesign d = cp::buildTinyCpu(s->design);
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, s->design.program, s->cycles);
  sm::Simulator sim(cd);
  const auto alarm = alarmNet(d, "alarm_trap");
  const auto victim = *d.nl.findCell("cpu0/r0_0");

  std::uint64_t firstAlarm = 0;
  bool alarmed = false;
  bool droppedAfterAlarm = false;
  const std::uint64_t inject = 31;  // mid-loop, r0/r1 hold the decrement
  for (std::uint64_t c = 0; c < s->cycles; ++c) {
    stim.apply(sim, c);
    if (c == inject) sim.flipFf(victim);
    sim.evalComb();
    const bool high = sim.value(alarm) == sm::Logic::L1;
    if (high && !alarmed) {
      alarmed = true;
      firstAlarm = c;
    }
    if (alarmed && !high) droppedAfterAlarm = true;
    sim.clockEdge();
  }
  ASSERT_TRUE(alarmed);
  EXPECT_GE(firstAlarm, inject);
  // The next compare-before-use inside the loop body must catch it: one
  // source instruction expands to at most ~6 transformed instructions and a
  // loop iteration is a handful of those, each 2 cycles.
  EXPECT_LE(firstAlarm - inject, 64u);
  EXPECT_FALSE(droppedAfterAlarm) << "alarm_trap must be sticky";
}

TEST(ScenarioGateLevelTest, SkewedLockstepCatchesEitherChannelWithinWindow) {
  const sc::Scenario* s = sc::find("lockstep-skewed");
  ASSERT_NE(s, nullptr);
  const cp::CpuDesign d = cp::buildTinyCpu(s->design);
  const auto alarm = alarmNet(d, "alarm_lock");
  const auto fallback = *d.nl.findNet("lockchk/fallback_q");
  const nl::CompiledDesignPtr cd = nl::compile(d.nl);
  const cp::CpuWorkload stim(d, s->design.program, s->cycles);

  const auto run = [&](const char* victimCell, bool* alarmed,
                       std::uint64_t* firstAlarm, bool* fallbackAtEnd,
                       bool* fallbackDropped) {
    sm::Simulator sim(cd);
    *alarmed = false;
    *fallbackDropped = false;
    bool fbSeen = false;
    for (std::uint64_t c = 0; c < s->cycles; ++c) {
      stim.apply(sim, c);
      if (victimCell && c == 40) sim.flipFf(*d.nl.findCell(victimCell));
      sim.evalComb();
      if (!*alarmed && sim.value(alarm) == sm::Logic::L1) {
        *alarmed = true;
        *firstAlarm = c;
      }
      const bool fb = sim.value(fallback) == sm::Logic::L1;
      if (fbSeen && !fb) *fallbackDropped = true;
      fbSeen = fbSeen || fb;
      *fallbackAtEnd = fb;
      sim.clockEdge();
    }
  };

  bool alarmed = false, fbEnd = false, fbDropped = false;
  std::uint64_t first = 0;

  // Fault free: the skewed checker never miscompares.
  run(nullptr, &alarmed, &first, &fbEnd, &fbDropped);
  EXPECT_FALSE(alarmed);
  EXPECT_FALSE(fbEnd);

  // SEU in the checker channel: the comparator sees it within the one-cycle
  // skew window (divergence -> comb mismatch -> registered alarm).
  run("cpu1/acc_3", &alarmed, &first, &fbEnd, &fbDropped);
  EXPECT_TRUE(alarmed);
  EXPECT_LE(first - 40, 4u);
  EXPECT_TRUE(fbEnd) << "fallback_active must latch";
  EXPECT_FALSE(fbDropped) << "fallback_active must never release";

  // SEU in the master channel: caught through the delayed-compare registers.
  run("cpu0/acc_3", &alarmed, &first, &fbEnd, &fbDropped);
  EXPECT_TRUE(alarmed);
  EXPECT_LE(first - 40, 4u);
  EXPECT_TRUE(fbEnd);
}

// ---------------------------------------------------------------------------
// scenario registry, full-flow verdicts, cross-engine identity
// ---------------------------------------------------------------------------

TEST(ScenarioSuiteTest, RegistryShape) {
  const auto& v = sc::all();
  ASSERT_GE(v.size(), 6u);
  EXPECT_EQ(v[0].name, "unprotected");
  EXPECT_TRUE(v[0].expectedAlarms.empty());
  std::set<std::string> names;
  for (const auto& s : v) {
    SCOPED_TRACE(s.name);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario name";
    EXPECT_FALSE(s.description.empty());
    EXPECT_FALSE(s.design.program.empty());
    EXPECT_TRUE(s.design.minimalObs);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.sourceProgram, sc::kernelProgram());
    const cp::CpuDesign d = cp::buildTinyCpu(s.design);
    for (const auto& a : s.expectedAlarms) {
      EXPECT_NE(std::find(d.alarmNames.begin(), d.alarmNames.end(), a),
                d.alarmNames.end())
          << "expected alarm " << a << " not an alarm output";
    }
    EXPECT_EQ(sc::find(s.name), &s);
  }
  for (const char* required : {"unprotected", "lockstep", "tmr", "dwc",
                               "cfcss", "combined"}) {
    EXPECT_NE(sc::find(required), nullptr) << required;
  }
  EXPECT_EQ(sc::find("no-such-scenario"), nullptr);
}

TEST(ScenarioSuiteTest, FullFlowVerdictsBeatTheBaseline) {
  sc::RunOptions opt;
  opt.perBit = 1;
  const auto& v = sc::all();
  const auto baseline = sc::runScenario(v[0], opt);
  EXPECT_GT(baseline.faults, 0u);
  EXPECT_GT(baseline.tally.total, 0u);

  for (const auto& s : v) {
    SCOPED_TRACE(s.name);
    const auto r = sc::runScenario(s, opt);
    EXPECT_GT(r.faults, 0u);
    EXPECT_TRUE(sc::verdictOk(s, r, baseline))
        << "measured SFF " << r.measuredSff << " vs baseline "
        << baseline.measuredSff << " (floor +" << s.minSffGain
        << "), diagFired " << r.tally.diagFired;
    if (&s != &v[0]) {
      // Every mechanism also raises the analytic (sheet-level) SFF.
      EXPECT_GT(r.analysisSff, baseline.analysisSff);
    }
  }
}

TEST(ScenarioSuiteTest, CrossEngineVerdictIdentity) {
  for (const char* name : {"lockstep", "dwc"}) {
    SCOPED_TRACE(name);
    const sc::Scenario* s = sc::find(name);
    ASSERT_NE(s, nullptr);

    sc::RunOptions serial;
    serial.perBit = 1;
    serial.campaign.engine = socfmea::faultsim::EngineKind::Serial;
    const auto ref = sc::runScenario(*s, serial);

    sc::RunOptions sliced = serial;
    sliced.campaign.engine = socfmea::faultsim::EngineKind::Bitsliced;
    const auto bs = sc::runScenario(*s, sliced);

    sc::RunOptions slicedThreads = sliced;
    slicedThreads.campaign.threads = 2;
    const auto bs2 = sc::runScenario(*s, slicedThreads);

    for (const auto* other : {&bs, &bs2}) {
      ASSERT_EQ(other->campaign.merged.records.size(),
                ref.campaign.merged.records.size());
      for (std::size_t i = 0; i < ref.campaign.merged.records.size(); ++i) {
        ASSERT_EQ(other->campaign.merged.records[i].outcome,
                  ref.campaign.merged.records[i].outcome)
            << "record " << i;
      }
      EXPECT_EQ(other->tally.counts, ref.tally.counts);
      EXPECT_EQ(other->tally.diagFired, ref.tally.diagFired);
      EXPECT_EQ(other->measuredSff, ref.measuredSff);
      EXPECT_EQ(other->measuredDdf, ref.measuredDdf);
    }
  }
}

// ---------------------------------------------------------------------------
// shrunk CPU corpus regression anchors (written by tools/fuzz_diff --cpu)
// ---------------------------------------------------------------------------

class CpuCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CpuCorpusTest, ReplaysCleanThroughAllCombos) {
  const std::string base = std::string(SOCFMEA_CORPUS_DIR) + "/" + GetParam();
  const auto repro = tk::loadRepro(base + ".nl", base + ".plan");
  EXPECT_NO_THROW(repro.design.check());
  const auto report = tk::runOracle(repro.design, repro.plan);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.reference.size(), repro.plan.faults.size());
}

INSTANTIATE_TEST_SUITE_P(CpuCorpus, CpuCorpusTest,
                         ::testing::Values("cpu-dwc-r0-seu",
                                           "cpu-cfcss-pc-seu"));
