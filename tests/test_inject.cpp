// Tests for the fault injector (Figure 4): workloads, the operational
// profiler, the environment builder (collapser + randomiser), the injection
// manager's SENS/OBSE/DIAG watch (X semantics included) and outcome
// classification, the coverage collector and the result analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "faultsim/stimulus.hpp"
#include "inject/analyzer.hpp"
#include "inject/manager.hpp"
#include "inject/workload.hpp"
#include "netlist/builder.hpp"
#include "obs/telemetry.hpp"
#include "zones/extract.hpp"

namespace nl = socfmea::netlist;
namespace zn = socfmea::zones;
namespace ft = socfmea::fault;
namespace fs = socfmea::faultsim;
namespace ij = socfmea::inject;
namespace sm = socfmea::sim;

namespace {

// A testbed with a known safety architecture:
//   din[4] --> dreg[4] --> dout           (the protected payload)
//   parity of din -> preg --> checker vs parity(dreg) -> alarm_chk
//   an isolated "spare" register that drives nothing (masked zone).
struct Testbed {
  nl::Netlist n{"tb"};
  nl::NetId rst;
  nl::Bus din, dregQ;
  nl::CellId pregFf;
  nl::CellId spareFf;
  zn::ZoneDatabase db;
  zn::EffectsModel fx;

  Testbed() : db(build()), fx(db, {"alarm_"}) {}

  zn::ZoneDatabase build() {
    nl::Builder b(n);
    rst = b.input("rst");
    din = b.inputBus("din", 4);
    dregQ = b.registerBus("dreg", din, nl::kNoNet, rst, 0);
    const auto pIn = b.reduceXor(din);
    const auto pQ = b.dff("preg", pIn, nl::kNoNet, rst, false);
    pregFf = *n.findCell("preg");
    const auto pNow = b.reduceXor(dregQ);
    b.output("alarm_chk", b.bxor(pQ, pNow));
    b.outputBus("dout", dregQ);
    const auto spareQ = b.dff("spare", din[0], nl::kNoNet, rst, false);
    (void)spareQ;
    spareFf = *n.findCell("spare");
    n.check();
    return zn::extractZones(n);
  }

  [[nodiscard]] ij::InjectionEnvironment env(std::uint64_t window = 4) const {
    return ij::EnvironmentBuilder(db, fx)
        .withDetectionWindow(window)
        .build();
  }

  [[nodiscard]] ij::RandomWorkload stimulus(std::uint64_t cycles = 64) const {
    return ij::RandomWorkload(n, cycles, 5, {{rst, false}});
  }
  /// Reset low and din at 0 every cycle: nothing ever changes.
  [[nodiscard]] fs::StimulusTrace idle() const {
    return fs::StimulusTrace(n, 32);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

TEST(WorkloadTest, RandomIsDeterministicPerSeed) {
  // The trace is drawn at construction: two objects with the same seed hold
  // the same stimulus, over every primary input in order.
  Testbed tb;
  const fs::StimulusTrace a = tb.stimulus(32);
  const fs::StimulusTrace b = tb.stimulus(32);
  ASSERT_EQ(a.cycles(), 32u);
  EXPECT_EQ(a.inputs, fs::StimulusTrace(tb.n, 0).inputs);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.values, b.values);
  EXPECT_TRUE(a.flips.empty());
  // Random data: the din inputs do not hold one value for 32 cycles.
  const std::set<std::vector<bool>> rows(a.values.begin(), a.values.end());
  EXPECT_GT(rows.size(), 1u);
}

TEST(WorkloadTest, PinnedInputsHold) {
  Testbed tb;
  const fs::StimulusTrace stim = tb.stimulus(32);
  const auto rst = std::find(stim.inputs.begin(), stim.inputs.end(), tb.rst);
  ASSERT_NE(rst, stim.inputs.end());
  const auto col = static_cast<std::size_t>(rst - stim.inputs.begin());
  for (const std::vector<bool>& row : stim.values) EXPECT_FALSE(row[col]);
}

// ---------------------------------------------------------------------------
// operational profile
// ---------------------------------------------------------------------------

TEST(ProfileTest, ActiveZonesRecorded) {
  Testbed tb;
  const auto stim = tb.stimulus(128);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto p = ij::OperationalProfile::record(tb.db, golden);
  const auto dreg = *tb.db.findZone("dreg");
  EXPECT_TRUE(p.zone(dreg).triggered());
  EXPECT_GT(p.zone(dreg).writes, 20u);  // random data changes most cycles
  EXPECT_FALSE(p.zone(dreg).activeCycles.empty());
  EXPECT_EQ(p.totalCycles(), 128u);
}

TEST(ProfileTest, CompletenessCountsTriggeredZones) {
  Testbed tb;
  const auto stim = tb.stimulus(128);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto p = ij::OperationalProfile::record(tb.db, golden);
  EXPECT_GT(p.completeness(), 0.5);
  EXPECT_LE(p.completeness(), 1.0);
}

TEST(ProfileTest, IdleWorkloadTriggersNothing) {
  Testbed tb;
  const fs::StimulusTrace idle = tb.idle();
  const auto p = ij::OperationalProfile::record(
      tb.db, fs::GoldenRun(tb.db.compiledShared(), idle));
  const auto dreg = *tb.db.findZone("dreg");
  EXPECT_FALSE(p.zone(dreg).triggered());
  EXPECT_FALSE(p.untriggeredZones().empty());
}

TEST(ProfileTest, FreqClassTracksActivity) {
  Testbed tb;
  const auto stim = tb.stimulus(128);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto p = ij::OperationalProfile::record(tb.db, golden);
  const auto dreg = *tb.db.findZone("dreg");
  // Random 4-bit data changes nearly every cycle: continuous-ish.
  const auto f = p.freqClassOf(dreg);
  EXPECT_TRUE(f == socfmea::fmea::FreqClass::High ||
              f == socfmea::fmea::FreqClass::Continuous);
  EXPECT_GE(p.lifetimeFractionOf(dreg), 0.0);
  EXPECT_LE(p.lifetimeFractionOf(dreg), 1.0);
}

// ---------------------------------------------------------------------------
// environment builder / collapser / randomiser
// ---------------------------------------------------------------------------

TEST(EnvBuilderTest, SeparatesAlarmsFromFunctionalOutputs) {
  Testbed tb;
  const auto env = tb.env();
  EXPECT_EQ(env.alarmNets.size(), 1u);
  EXPECT_EQ(env.obsNets.size(), 4u);  // dout bus
  EXPECT_FALSE(env.targetZones.empty());
}

TEST(EnvBuilderTest, OwnerZonesOfSeuIsTheFfZone) {
  Testbed tb;
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = tb.pregFf;
  const auto owners = ij::ownerZones(tb.db, f);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], *tb.db.findZone("preg"));
  EXPECT_EQ(ij::targetZoneOf(tb.db, f), owners[0]);
}

TEST(EnvBuilderTest, CollapserDropsInactiveZoneFaults) {
  Testbed tb;
  // Idle workload: nothing triggers -> every zone-owned fault is dropped.
  const fs::StimulusTrace idle = tb.idle();
  const auto p = ij::OperationalProfile::record(
      tb.db, fs::GoldenRun(tb.db.compiledShared(), idle));
  auto faults = ft::allSeuFaults(tb.n);
  const auto dropped = ij::collapseAgainstProfile(tb.db, p, faults);
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(faults.empty());
}

TEST(EnvBuilderTest, RandomiserAssignsActiveCycles) {
  Testbed tb;
  const auto stim = tb.stimulus(128);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto p = ij::OperationalProfile::record(tb.db, golden);
  auto faults = ft::allSeuFaults(tb.n);
  const auto sampled = ij::randomizeFaultList(tb.db, p, faults, 64, 3);
  EXPECT_LE(sampled.size(), 64u);
  for (const auto& f : sampled) {
    if (!f.transient()) continue;
    const auto zone = ij::targetZoneOf(tb.db, f);
    if (zone == zn::kNoZone) continue;
    const auto& act = p.zone(zone).activeCycles;
    if (act.empty()) continue;
    EXPECT_TRUE(std::find(act.begin(), act.end(),
                          static_cast<std::uint32_t>(f.cycle)) != act.end())
        << "transient scheduled outside the zone's live cycles";
  }
}

TEST(EnvBuilderTest, RandomiserCapsListSize) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto p = ij::OperationalProfile::record(tb.db, golden);
  const auto faults = ft::allStuckAtFaults(tb.n);
  const auto sampled = ij::randomizeFaultList(tb.db, p, faults, 5, 3);
  EXPECT_EQ(sampled.size(), 5u);
}

// ---------------------------------------------------------------------------
// injection manager: outcome classification
// ---------------------------------------------------------------------------

namespace {

ij::CampaignResult runOne(Testbed& tb, const ft::Fault& f,
                          std::uint64_t window = 4) {
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  ij::InjectionManager mgr(tb.env(window));
  return mgr.run(golden, {f});
}

}  // namespace

TEST(ManagerTest, DataRegisterSeuIsDangerousButDetected) {
  Testbed tb;
  // dreg flip: dout deviates AND the parity checker fires the same cycle.
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = *tb.n.findCell("dreg_1");
  f.cycle = 20;
  const auto res = runOne(tb, f);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::DangerousDetected);
  EXPECT_TRUE(res.records[0].obs.sens);
  EXPECT_TRUE(res.records[0].obs.diag);
}

TEST(ManagerTest, ParityRegisterSeuIsSafeDetected) {
  Testbed tb;
  // preg flip: alarm fires but dout never deviates.
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = tb.pregFf;
  f.cycle = 20;
  const auto res = runOne(tb, f);
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::SafeDetected);
}

TEST(ManagerTest, SpareRegisterSeuIsSafeMasked) {
  Testbed tb;
  // spare drives nothing: zone deviates, nothing else does.
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = tb.spareFf;
  f.cycle = 20;
  const auto res = runOne(tb, f);
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::SafeMasked);
  EXPECT_TRUE(res.records[0].obs.sens);
  EXPECT_FALSE(res.records[0].obs.diag);
}

TEST(ManagerTest, SeuDetectionIsWindowed) {
  Testbed tb;
  // The parity checker fires the same cycle as the deviation, so even a
  // zero-cycle detection window classifies the dreg flip as detected.
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = *tb.n.findCell("dreg_0");
  f.cycle = 20;
  const auto res = runOne(tb, f, /*window=*/0);
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::DangerousDetected);
}

TEST(ManagerTest, StuckAlarmMakesDataFaultsUndetected) {
  // Rebuild the testbed with the checker disconnected (alarm tied low):
  // every dreg corruption becomes DangerousUndetected.
  nl::Netlist n;
  nl::Builder b(n);
  const auto rst = b.input("rst");
  const auto din = b.inputBus("din", 4);
  const auto q = b.registerBus("dreg", din, nl::kNoNet, rst, 0);
  b.outputBus("dout", q);
  b.output("alarm_chk", b.constNet(false));  // diagnostic missing
  n.check();
  const auto db = zn::extractZones(n);
  const zn::EffectsModel fx(db, {"alarm_"});
  const auto env = ij::EnvironmentBuilder(db, fx).build();
  ij::InjectionManager mgr(env);
  const ij::RandomWorkload stim(n, 64, 5, {{rst, false}});
  const fs::GoldenRun golden(db.compiledShared(), stim);
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = *n.findCell("dreg_2");
  f.cycle = 20;
  const auto res = mgr.run(golden, {f});
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::DangerousUndetected);
}

TEST(ManagerTest, ZoneFailureFaultsCoverEveryTargetBit) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto faults = mgr.zoneFailureFaults(profile, 2, 9);
  // dreg(4) + preg(1) + spare(1) flip-flops x 2 each.
  EXPECT_EQ(faults.size(), 12u);
}

TEST(ManagerTest, MeasuredAggregatesConsistent) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto faults = mgr.zoneFailureFaults(profile, 2, 9);
  const auto res = mgr.run(golden, faults);
  std::size_t sum = 0;
  for (const auto o :
       {ij::Outcome::NoEffect, ij::Outcome::SafeMasked,
        ij::Outcome::SafeDetected, ij::Outcome::DangerousDetected,
        ij::Outcome::DangerousUndetected}) {
    sum += res.count(o);
  }
  EXPECT_EQ(sum, res.records.size());
  EXPECT_GE(res.measuredSff(), 0.0);
  EXPECT_LE(res.measuredSff(), 1.0);
}

// ---------------------------------------------------------------------------
// coverage collector
// ---------------------------------------------------------------------------

TEST(CoverageTest, CompletenessReachesOneOnFullCampaign) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  ij::CoverageCollector cov(mgr.environment());
  const auto faults = mgr.zoneFailureFaults(profile, 3, 9);
  (void)mgr.run(golden, faults, &cov);
  EXPECT_EQ(cov.injections(), faults.size());
  EXPECT_GT(cov.sensCoverage(), 0.99);
  EXPECT_GT(cov.diagCoverage(), 0.99);
  EXPECT_GT(cov.completeness(), 0.9);
  EXPECT_TRUE(cov.unsensedZones().empty());
}

TEST(CoverageTest, EmptyCampaignIsIncomplete) {
  Testbed tb;
  ij::InjectionManager mgr(tb.env());
  ij::CoverageCollector cov(mgr.environment());
  EXPECT_EQ(cov.injections(), 0u);
  EXPECT_LT(cov.completeness(), 0.1);
}

// ---------------------------------------------------------------------------
// result analyzer
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, AggregateSplitsOutcomesPerZone) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 4, 9));
  ij::ResultAnalyzer analyzer(tb.db, tb.fx);
  const auto zones = analyzer.aggregate(res);
  for (const auto& m : zones) {
    EXPECT_EQ(m.masked + m.safeDetected + m.dangerousDetected + m.undetected,
              m.activated);
    EXPECT_LE(m.activated, m.injections);
  }
  // The data register must appear with mostly-detected outcomes.
  const auto dreg = std::find_if(zones.begin(), zones.end(), [](const auto& m) {
    return m.name == "dreg";
  });
  ASSERT_NE(dreg, zones.end());
  EXPECT_GT(dreg->measuredDdf(), 0.9);
}

TEST(AnalyzerTest, EffectsTableMatchesStructuralPrediction) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 4, 9));
  ij::ResultAnalyzer analyzer(tb.db, tb.fx);
  const auto table = analyzer.effectsTable(res);
  for (const auto& e : table) {
    const auto& predicted = tb.fx.effectsOf(e.zone);
    for (const auto obs : e.observedAt) {
      EXPECT_NE(predicted[obs], zn::EffectClass::None)
          << "zone " << tb.db.zone(e.zone).name << " observed at point "
          << tb.fx.point(obs).name << " which the model ruled out";
    }
  }
}

TEST(AnalyzerTest, ValidationOneSided) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 6, 9));
  ij::ResultAnalyzer analyzer(tb.db, tb.fx);

  // Sheet that matches reality: dreg claims the parity checker.
  socfmea::fmea::FmeaSheet honest;
  honest.populateFromZones(tb.db, socfmea::fmea::FitModel{});
  honest.setSafeFactors("", socfmea::fmea::SdFactors{0.05, 0.0});
  honest.addClaim("dreg", "", socfmea::fmea::DiagnosticClaim{"ram-parity", 0.6});
  honest.compute();
  const auto okRep = analyzer.validate(honest, res, 0.5, 4);
  EXPECT_TRUE(okRep.effectsConsistent);

  // Sheet that overclaims: spare (which nothing protects) claims high DC.
  socfmea::fmea::FmeaSheet liar;
  liar.populateFromZones(tb.db, socfmea::fmea::FitModel{});
  liar.setSafeFactors("", socfmea::fmea::SdFactors{0.05, 0.0});
  liar.addClaim("dreg", "", socfmea::fmea::DiagnosticClaim{"cpu-comparator", 0.99});
  liar.addClaim("spare", "", socfmea::fmea::DiagnosticClaim{"cpu-comparator", 0.99});
  liar.compute();
  const auto badRep = analyzer.validate(liar, res, 0.10, 4);
  // spare's measured DDF cannot support the 99 % claim... but spare faults
  // are all MASKED (never dangerous), so DDF has no samples; the failure
  // must instead show on measured S vs the 5 % claimed safe fraction.
  bool spareChecked = false;
  for (const auto& z : badRep.zones) {
    if (z.name == "spare") {
      spareChecked = true;
      EXPECT_GT(z.measuredS, 0.9);  // everything masked
    }
  }
  EXPECT_TRUE(spareChecked);
}

// ---------------------------------------------------------------------------
// detection latency and latent (dual-point) faults
// ---------------------------------------------------------------------------

TEST(ManagerTest, DetectionLatencyZeroForSameCycleAlarm) {
  Testbed tb;
  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = *tb.n.findCell("dreg_1");
  f.cycle = 20;
  const auto res = runOne(tb, f);
  ASSERT_EQ(res.records[0].outcome, ij::Outcome::DangerousDetected);
  // The parity checker is combinational: alarm in the same settled cycle.
  EXPECT_EQ(ij::CampaignResult::detectionLatency(res.records[0]), 0u);
  EXPECT_DOUBLE_EQ(res.meanDetectionLatency(), 0.0);
  EXPECT_EQ(res.maxDetectionLatency(), 0u);
}

TEST(ManagerTest, LatentAlarmFaultDefeatsDetection) {
  // Dual-point scenario: a latent stuck-at silences the parity alarm; the
  // previously-detected data-register SEUs become dangerous undetected —
  // exactly why the norm demands latent-fault coverage.
  Testbed tb;
  const auto alarmCell = *tb.n.findCell("alarm_chk");
  ft::Fault latent;
  latent.kind = ft::FaultKind::StuckAt0;
  latent.net = tb.n.cell(alarmCell).inputs[0];

  ft::Fault seu;
  seu.kind = ft::FaultKind::SeuFlip;
  seu.cell = *tb.n.findCell("dreg_1");
  seu.cycle = 20;

  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  ij::InjectionManager mgr(tb.env());
  const auto clean = mgr.run(golden, {seu});
  EXPECT_EQ(clean.records[0].outcome, ij::Outcome::DangerousDetected);

  ij::CampaignOptions opt;
  opt.preexisting = latent;
  const auto degraded = mgr.run(golden, {seu}, nullptr, opt);
  EXPECT_EQ(degraded.records[0].outcome, ij::Outcome::DangerousUndetected);
}

TEST(ManagerTest, LatentFaultInPayloadStillDetected) {
  // A latent fault that does NOT touch the diagnostic leaves detection
  // intact (the alarm fires on the second fault's deviation).
  Testbed tb;
  ft::Fault latent;
  latent.kind = ft::FaultKind::SeuFlip;  // transient latent: spare register
  latent.cell = tb.spareFf;
  latent.cycle = 5;

  ft::Fault seu;
  seu.kind = ft::FaultKind::SeuFlip;
  seu.cell = *tb.n.findCell("dreg_2");
  seu.cycle = 20;

  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  ij::InjectionManager mgr(tb.env());
  ij::CampaignOptions opt;
  opt.preexisting = latent;
  const auto res = mgr.run(golden, {seu}, nullptr, opt);
  EXPECT_EQ(res.records[0].outcome, ij::Outcome::DangerousDetected);
}

TEST(ManagerTest, LatentSetPulseFiresInEveryEngine) {
  // A latent SET is pulsed like a campaign SET: the pulse on a payload
  // output net reaches the dout observation point even though the campaign
  // fault (a spare-register SEU) is masked.
  Testbed tb;
  ft::Fault latent;
  latent.kind = ft::FaultKind::SetPulse;
  latent.net = tb.dregQ[1];
  latent.cycle = 30;

  ft::Fault seu;
  seu.kind = ft::FaultKind::SeuFlip;
  seu.cell = tb.spareFf;
  seu.cycle = 20;

  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  ij::InjectionManager mgr(tb.env());
  for (const auto engine : {socfmea::faultsim::EngineKind::Serial,
                            socfmea::faultsim::EngineKind::Bitsliced}) {
    SCOPED_TRACE(std::string(socfmea::faultsim::engineKindName(engine)));
    ij::CampaignOptions opt;
    opt.engine = engine;
    opt.preexisting = latent;
    const auto res = mgr.run(golden, {seu}, nullptr, opt);
    ASSERT_EQ(res.records.size(), 1u);
    EXPECT_TRUE(res.records[0].obs.obs);
    EXPECT_EQ(res.records[0].obs.firstObsCycle, 30u);
    EXPECT_NE(res.records[0].outcome, ij::Outcome::NoEffect);
    EXPECT_NE(res.records[0].outcome, ij::Outcome::SafeMasked);
  }
}

TEST(ManagerTest, RepeatedFaultsSimulateOnce) {
  // A list may hold one fault twice (zoneFailureFaults samples cycles with
  // replacement).  Each distinct fault is simulated once, yet every list
  // position keeps its own record and its own coverage count.
  Testbed tb;
  ft::Fault a;
  a.kind = ft::FaultKind::SeuFlip;
  a.cell = *tb.n.findCell("dreg_1");
  a.cycle = 20;
  ft::Fault b = a;
  b.cell = tb.pregFf;
  ft::Fault c = a;
  c.cell = tb.spareFf;
  c.cycle = 33;
  const ft::FaultList faults{a, b, a, c, b};

  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  ij::InjectionManager mgr(tb.env());
  socfmea::obs::Registry& reg = socfmea::obs::Registry::global();
  using socfmea::faultsim::EngineKind;
  struct Config {
    EngineKind engine;
    unsigned threads;
  };
  for (const Config cfg : {Config{EngineKind::Serial, 1},
                           Config{EngineKind::Bitsliced, 1},
                           Config{EngineKind::Bitsliced, 2}}) {
    SCOPED_TRACE(std::string(socfmea::faultsim::engineKindName(cfg.engine)) +
                 " x" + std::to_string(cfg.threads));
    ij::CampaignOptions opt;
    opt.engine = cfg.engine;
    opt.threads = cfg.threads;
    ij::CoverageCollector cov(mgr.environment());
    const std::uint64_t before = reg.counter("inject.faults_simulated");
    const auto res = mgr.run(golden, faults, &cov, opt);
    EXPECT_EQ(reg.counter("inject.faults_simulated") - before, 3u);
    EXPECT_EQ(cov.injections(), 5u);
    ASSERT_EQ(res.records.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      SCOPED_TRACE(i);
      const ij::InjectionRecord& got = res.records[i];
      const ij::InjectionRecord want =
          mgr.run(golden, {faults[i]}, nullptr, opt).records.at(0);
      EXPECT_TRUE(got.fault == want.fault);
      EXPECT_EQ(got.zone, want.zone);
      EXPECT_EQ(got.outcome, want.outcome);
      EXPECT_EQ(got.obs.sens, want.obs.sens);
      EXPECT_EQ(got.obs.sensCycle, want.obs.sensCycle);
      EXPECT_EQ(got.obs.zonesDeviated, want.obs.zonesDeviated);
      EXPECT_EQ(got.obs.obs, want.obs.obs);
      EXPECT_EQ(got.obs.firstObsCycle, want.obs.firstObsCycle);
      EXPECT_EQ(got.obs.obsDeviated, want.obs.obsDeviated);
      EXPECT_EQ(got.obs.diag, want.obs.diag);
      EXPECT_EQ(got.obs.diagCycle, want.obs.diagCycle);
    }
  }
}

// ---------------------------------------------------------------------------
// single-pass outcome tally (CampaignResult::tally)
// ---------------------------------------------------------------------------

TEST(TallyTest, MatchesPerOutcomeCounts) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 4, 9));

  const auto t = res.tally();
  std::size_t sum = 0;
  for (const auto o :
       {ij::Outcome::NoEffect, ij::Outcome::SafeMasked,
        ij::Outcome::SafeDetected, ij::Outcome::DangerousDetected,
        ij::Outcome::DangerousUndetected}) {
    EXPECT_EQ(t.count(o), res.count(o));
    sum += t.count(o);
  }
  EXPECT_EQ(sum, res.records.size());
  EXPECT_EQ(t.total, res.records.size());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredSff(t), res.measuredSff());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredDdf(t), res.measuredDdf());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::measuredSafeFraction(t),
                   res.measuredSafeFraction());
  EXPECT_DOUBLE_EQ(ij::CampaignResult::meanDetectionLatency(t),
                   res.meanDetectionLatency());
  EXPECT_EQ(t.latencyMax, res.maxDetectionLatency());
}

TEST(AnalyzerTest, EffectsTablePrinterShowsClassification) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  const auto res = mgr.run(golden, mgr.zoneFailureFaults(profile, 4, 9));
  ij::ResultAnalyzer analyzer(tb.db, tb.fx);
  std::ostringstream out;
  ij::printEffectsTable(out, tb.db, tb.fx, analyzer.effectsTable(res));
  EXPECT_NE(out.str().find("effects table"), std::string::npos);
  EXPECT_NE(out.str().find("[main]"), std::string::npos);
  EXPECT_EQ(out.str().find("UNPREDICTED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// machine-readable export
// ---------------------------------------------------------------------------

TEST(JsonExportTest, CampaignJsonMatchesInMemoryTally) {
  Testbed tb;
  const auto stim = tb.stimulus(64);
  const fs::GoldenRun golden(tb.db.compiledShared(), stim);
  const auto profile = ij::OperationalProfile::record(tb.db, golden);
  ij::InjectionManager mgr(tb.env());
  ij::CoverageCollector coverage(mgr.environment());
  const auto res =
      mgr.run(golden, mgr.zoneFailureFaults(profile, 2, 9), &coverage);
  const ij::OutcomeTally tally = res.tally();

  // Round trip through the serializer + parser, then cross-check every
  // figure against the in-memory tally.
  const auto j = socfmea::obs::Json::parse(res.toJson().dump(2));
  const auto& m = j.at("metrics");
  EXPECT_EQ(m.at("total").asInt(),
            static_cast<std::int64_t>(tally.total));
  EXPECT_EQ(m.at("no_effect").asInt(),
            static_cast<std::int64_t>(tally.count(ij::Outcome::NoEffect)));
  EXPECT_EQ(m.at("safe_masked").asInt(),
            static_cast<std::int64_t>(tally.count(ij::Outcome::SafeMasked)));
  EXPECT_EQ(m.at("safe_detected").asInt(),
            static_cast<std::int64_t>(tally.count(ij::Outcome::SafeDetected)));
  EXPECT_EQ(
      m.at("dangerous_detected").asInt(),
      static_cast<std::int64_t>(tally.count(ij::Outcome::DangerousDetected)));
  EXPECT_EQ(m.at("dangerous_undetected").asInt(),
            static_cast<std::int64_t>(
                tally.count(ij::Outcome::DangerousUndetected)));
  EXPECT_EQ(m.at("activated").asInt(),
            static_cast<std::int64_t>(tally.activated()));
  EXPECT_DOUBLE_EQ(m.at("measured_sff").asDouble(),
                   ij::CampaignResult::measuredSff(tally));
  EXPECT_DOUBLE_EQ(m.at("measured_ddf").asDouble(),
                   ij::CampaignResult::measuredDdf(tally));
  const auto& e = j.at("execution");
  EXPECT_EQ(e.at("cycles_simulated").asInt(),
            static_cast<std::int64_t>(res.cyclesSimulated));

  // Coverage export mirrors the collector.
  const auto c = socfmea::obs::Json::parse(coverage.toJson().dump());
  EXPECT_EQ(c.at("injections").asInt(),
            static_cast<std::int64_t>(coverage.injections()));
  EXPECT_DOUBLE_EQ(c.at("completeness").asDouble(), coverage.completeness());
  EXPECT_EQ(c.at("unsensed_zones").size(), coverage.unsensedZones().size());
}
