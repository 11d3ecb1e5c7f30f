#include "cpu/scenarios.hpp"

#include <stdexcept>

#include "core/flow.hpp"
#include "cpu/tinycpu.hpp"
#include "cpu/workload.hpp"
#include "fmea/report.hpp"
#include "inject/env_builder.hpp"
#include "inject/profile.hpp"

namespace socfmea::cpu::scenarios {
namespace {

using cpu::encode;
using cpu::Op;

constexpr std::uint64_t kDetectionWindow = 24;

/// Gate-level cycle budget for a program image: 2 reset cycles, 2 cycles
/// per retired instruction, slack for the detection window and late alarms.
std::uint64_t cycleBudget(const std::vector<std::uint8_t>& image) {
  TinyCpu iss(image);
  iss.reset();
  (void)iss.run(4096);
  return 2 + 2 * static_cast<std::uint64_t>(iss.instructionsRetired()) + 48;
}

Scenario makeScenario(std::string name, std::string description,
                      CpuOptions base, SwMitigation m,
                      std::vector<std::string> expectedAlarms,
                      double minSffGain) {
  Scenario s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.mitigation = m;
  s.sourceProgram = kernelProgram();
  const TransformedProgram t = transformProgram(s.sourceProgram, m);
  base.program = t.image;
  base.minimalObs = true;
  s.design = std::move(base);
  s.expectedAlarms = std::move(expectedAlarms);
  s.minSffGain = minSffGain;
  s.cycles = cycleBudget(t.image);
  return s;
}

CpuOptions plainOpts(bool trap = false) {
  CpuOptions o;
  o.trap = trap;
  return o;
}

CpuOptions lockstepOpts(bool trap = false, unsigned skew = 0,
                        bool fallback = false) {
  CpuOptions o;
  o.lockstep = true;
  o.trap = trap;
  o.skewCycles = skew;
  o.fallback = fallback;
  return o;
}

}  // namespace

std::vector<std::uint8_t> kernelProgram() {
  // A counted loop (counter held in acc across OUT, decrement via r0 = 1),
  // then a conditional tail: outs 3, 2, 1, 0.  Contract-clean: r0-only,
  // every JNZ glued to a Z-setter, quadword-aligned targets, fan-in <= 2.
  return {
      encode(Op::Ldi, 1),   //  0: acc = 1
      encode(Op::Sta, 0),   //  1: r0 = 1 (the decrement constant)
      encode(Op::Ldi, 3),   //  2: acc = 3 (loop counter)
      encode(Op::Nop),      //  3: align the loop head
      encode(Op::Out),      //  4: loop: out acc
      encode(Op::Sub, 0),   //  5: acc -= 1, sets Z
      encode(Op::Jnz, 1),   //  6: -> 4 while acc != 0
      encode(Op::Lda, 0),   //  7: acc = 1, Z = 0
      encode(Op::Xorr, 0),  //  8: acc = 0, Z = 1
      encode(Op::Out),      //  9: out 0
      encode(Op::Halt),     // 10
  };
}

const std::vector<Scenario>& all() {
  static const std::vector<Scenario> registry = [] {
    std::vector<Scenario> v;
    v.push_back(makeScenario(
        "unprotected", "single core, no mechanism: the SFF baseline",
        plainOpts(), SwMitigation::None, {}, 0.0));
    v.push_back(makeScenario(
        "lockstep",
        "cycle-aligned dual-core lockstep, PC/ACC/OUT comparator -> alarm_lock",
        lockstepOpts(), SwMitigation::None, {"alarm_lock"}, 0.10));
    v.push_back(makeScenario(
        "lockstep-skewed",
        "one-cycle skewed checker channel with sticky fallback_active latch",
        lockstepOpts(false, 1, true), SwMitigation::None, {"alarm_lock"},
        0.10));
    v.push_back(makeScenario(
        "tmr",
        "software TMR: triplicated stores, timing-neutral majority-voted "
        "loads (masking, no alarm)",
        plainOpts(), SwMitigation::Tmr, {}, 0.01));
    v.push_back(makeScenario(
        "dwc",
        "software DWC: duplicated stores, compare-before-use, TRAP safe halt "
        "-> alarm_trap",
        plainOpts(true), SwMitigation::Dwc, {"alarm_trap"}, 0.02));
    v.push_back(makeScenario(
        "cfcss",
        "control-flow signature checking: per-block signature in r3, "
        "entry-check TRAP -> alarm_trap.  The signature registers add live "
        "state, so measured SFF sits below the unprotected baseline: the "
        "floor is a regression bound; the mechanism's value is its DC",
        plainOpts(true), SwMitigation::Cfcss, {"alarm_trap"}, -0.15));
    v.push_back(makeScenario(
        "combined",
        "lockstep comparator plus CFCSS-transformed program (HW + SW layered)",
        lockstepOpts(true), SwMitigation::Cfcss, {"alarm_lock", "alarm_trap"},
        0.10));
    return v;
  }();
  return registry;
}

const Scenario* find(std::string_view name) {
  for (const Scenario& s : all()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ScenarioResult runScenario(const Scenario& s, const RunOptions& opt) {
  const CpuDesign d = buildTinyCpu(s.design);
  core::FmeaFlow flow(d.nl, makeMitigationFlowConfig(d, s.mitigation));

  ScenarioResult r;
  r.name = s.name;
  r.analysisSff = flow.sff();
  r.analysisDc = flow.dc();
  r.sil = flow.sil();

  const auto env = inject::EnvironmentBuilder(flow.zones(), flow.effects())
                       .withDetectionWindow(kDetectionWindow)
                       .build();
  inject::InjectionManager mgr(env);
  const CpuWorkload stim(d, s.design.program, s.cycles);
  const faultsim::GoldenRun golden(flow.zones().compiledShared(), stim);
  const auto profile = inject::OperationalProfile::record(flow.zones(), golden);
  const auto faults = mgr.zoneFailureFaults(profile, opt.perBit, opt.seed);
  r.faults = faults.size();

  // Temporary exception to the Auto rule: at one thread the scenarios keep
  // the serial oracle.  Bit-sliced, the whole suite's benchmark set-up can
  // end before the perfbench harness takes its first 50 ms host-speed
  // sample, and HostSampler::window then reads a zero kernel time.
  // ROADMAP.md lists that harness fix and, after it, deleting this block.
  inject::CampaignOptions copt = opt.campaign;
  if (copt.engine == faultsim::EngineKind::Auto && copt.threads == 1) {
    copt.engine = faultsim::EngineKind::Serial;
  }
  r.campaign.merged = mgr.run(golden, faults, nullptr, copt);

  r.tally = r.campaign.merged.tally();
  r.measuredSff = inject::CampaignResult::measuredSff(r.tally);
  r.measuredDdf = inject::CampaignResult::measuredDdf(r.tally);
  r.measuredSafe = inject::CampaignResult::measuredSafeFraction(r.tally);
  return r;
}

bool verdictOk(const Scenario& s, const ScenarioResult& r,
               const ScenarioResult& baseline) {
  if (!s.expectedAlarms.empty() && r.tally.diagFired == 0) return false;
  return r.measuredSff + 1e-9 >= baseline.measuredSff + s.minSffGain;
}

obs::Json ScenarioResult::toJson() const {
  auto j = obs::Json::object();
  j["name"] = name;
  auto a = obs::Json::object();
  a["sff"] = analysisSff;
  a["dc"] = analysisDc;
  a["sil"] = std::string(fmea::silName(sil));
  j["analysis"] = a;
  auto m = obs::Json::object();
  m["sff"] = measuredSff;
  m["ddf"] = measuredDdf;
  m["safe_fraction"] = measuredSafe;
  m["faults"] = static_cast<std::uint64_t>(faults);
  m["tally"] = tally.toJson();
  j["measured"] = m;
  return j;
}

}  // namespace socfmea::cpu::scenarios
