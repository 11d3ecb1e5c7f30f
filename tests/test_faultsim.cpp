// Tests for the fault-simulation engines: the workloads' stimulus traces,
// toggle coverage with structural constant screening, the serial engine,
// and the serial-vs-bitsliced agreement property (the deep bit-sliced suite
// lives in test_bitsliced.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/frmem_config.hpp"
#include "cpu/scenarios.hpp"
#include "cpu/workload.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/serial.hpp"
#include "faultsim/toggle.hpp"
#include "inject/workload.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/builder.hpp"
#include "netlist/hash.hpp"
#include "testkit/oracle.hpp"

namespace cp = socfmea::cpu;
namespace ms = socfmea::memsys;
namespace nl = socfmea::netlist;
namespace fs = socfmea::faultsim;
namespace ft = socfmea::fault;
namespace ij = socfmea::inject;
namespace sm = socfmea::sim;
namespace tk = socfmea::testkit;

namespace {

// A small pipelined datapath: two input buses, an adder, a register, a
// parity output and a sum output — enough structure for detection tests.
struct DataPath {
  nl::Netlist n{"dp"};
  nl::NetId rst;
  nl::Bus a, b, q;

  DataPath() {
    nl::Builder bl(n);
    rst = bl.input("rst");
    a = bl.inputBus("a", 8);
    b = bl.inputBus("b", 8);
    const auto sum = bl.adder(a, b);
    q = bl.registerBus("r", sum, nl::kNoNet, rst, 0);
    bl.outputBus("sum", q);
    bl.output("par", bl.reduceXor(q));
    n.check();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// structural constants
// ---------------------------------------------------------------------------

TEST(ConstNetTest, ConstCellsAndDownstream) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto c0 = b.constNet(false);
  const auto dead = b.band(a, c0);       // pinned to 0
  const auto live = b.bor(a, c0);        // follows a
  b.output("o1", dead);
  b.output("o2", live);
  const auto constant = fs::structurallyConstantNets(n);
  EXPECT_TRUE(constant[c0]);
  EXPECT_TRUE(constant[dead]);
  EXPECT_FALSE(constant[live]);
  EXPECT_FALSE(constant[a]);
}

TEST(ConstNetTest, SelfLoopConfigRegisterIsConstant) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto rst = b.input("rst");
  const auto q = n.addNet("cfg_q");
  n.addDff("cfg", q, q, nl::kNoNet, rst, true);  // d == q, init 1
  const auto used = b.bnot(q);
  b.output("o", used);
  const auto constant = fs::structurallyConstantNets(n);
  EXPECT_TRUE(constant[q]);
  EXPECT_TRUE(constant[used]);
}

TEST(ConstNetTest, RealRegisterIsNotConstant) {
  DataPath d;
  const auto constant = fs::structurallyConstantNets(d.n);
  for (nl::NetId qn : d.q) EXPECT_FALSE(constant[qn]);
}

TEST(ConstNetTest, MuxWithEqualConstLegs) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto s = b.input("s");
  const auto one1 = b.constNet(true);
  const auto one2 = b.constNet(true);
  const auto m = b.bmux(s, one1, one2);
  b.output("o", m);
  const auto constant = fs::structurallyConstantNets(n);
  EXPECT_TRUE(constant[m]);
}

// ---------------------------------------------------------------------------
// workload traces
// ---------------------------------------------------------------------------

namespace {

/// Order-sensitive digest of a trace: its inputs, every value and every
/// cycle's flips (a cycle past the end of `flips` flips nothing).
std::string traceDigest(const fs::StimulusTrace& t) {
  std::uint64_t h = nl::hashMix(0x7ACEu, t.cycles());
  h = nl::hashMix(h, t.inputs.size());
  for (const nl::NetId n : t.inputs) h = nl::hashMix(h, n);
  for (std::uint64_t c = 0; c < t.cycles(); ++c) {
    for (const bool b : t.values[c]) h = nl::hashMix(h, b ? 1 : 0);
    const auto flips = t.flipsAt(c);
    h = nl::hashMix(h, flips.size());
    for (const sm::MemFlip& f : flips) {
      h = nl::hashMix(nl::hashMix(h, f.mem), nl::hashMix(f.addr, f.bit));
    }
  }
  return nl::hashHex(h);
}

}  // namespace

// The workloads write their traces at construction.  The digests pin the
// traces of the recording step these constructors replaced (it latched each
// cycle's drive through a simulator: every primary input in order, an
// undriven one reading 0), so nothing simulated moves.
TEST(WorkloadTraceTest, DigestsArePinned) {
  for (const auto& [name, opt] :
       {std::pair{"v1", ms::GateLevelOptions::v1()},
        std::pair{"v2", ms::GateLevelOptions::v2()}}) {
    SCOPED_TRACE(name);
    const ms::GateLevelDesign d = ms::buildProtectionIp(opt);
    EXPECT_EQ(traceDigest(ms::ProtectionIpWorkload(
                  d, socfmea::core::frmemWorkloadOptions())),
              "89c20219fac5b3ca");
  }
  const std::vector<std::pair<std::string, std::string>> cpuDigests = {
      {"unprotected", "8c8c5e4e679a67f7"}, {"lockstep", "8c8c5e4e679a67f7"},
      {"lockstep-skewed", "8c8c5e4e679a67f7"}, {"tmr", "6d0a879086d91158"},
      {"dwc", "dca3c73e1fcede62"},         {"cfcss", "fcd0c0ab679bf5b1"},
      {"combined", "fcd0c0ab679bf5b1"}};
  const auto& registry = cp::scenarios::all();
  ASSERT_EQ(registry.size(), cpuDigests.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const cp::scenarios::Scenario& s = registry[i];
    SCOPED_TRACE(s.name);
    ASSERT_EQ(s.name, cpuDigests[i].first);
    const cp::CpuDesign d = cp::buildTinyCpu(s.design);
    EXPECT_EQ(traceDigest(cp::CpuWorkload(d, s.design.program, s.cycles)),
              cpuDigests[i].second);
  }
  const ms::GateLevelDesign v1 =
      ms::buildProtectionIp(ms::GateLevelOptions::v1());
  EXPECT_EQ(traceDigest(ij::RandomWorkload(
                v1.nl, 300, 11,
                {{v1.rst, false}, {v1.bistEn, false}, {v1.priv, true}})),
            "5b85e8a88083ac35");
}

// ---------------------------------------------------------------------------
// toggle coverage
// ---------------------------------------------------------------------------

TEST(ToggleTest, RandomStimulusTogglesDataPath) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 200, 42, {{d.rst, false}});
  const auto tc = fs::measureToggle(fs::GoldenRun(nl::compile(d.n), stim));
  EXPECT_GT(tc.nets, 0u);
  // Everything except the pinned reset (and its dependents, e.g. the final
  // carry-out chain) toggles under random stimulus.
  EXPECT_GT(tc.onceFraction(), 0.97);
  EXPECT_LE(tc.untoggled.size(), 3u);
  EXPECT_GT(tc.bothFraction(), 0.9);
}

TEST(ToggleTest, HeldInputsReportedUntoggled) {
  DataPath d;
  // Drive only bus `a`; bus `b` stays at 0 -> its nets never toggle.
  fs::StimulusTrace stim(d.n, 100);
  for (std::uint64_t c = 0; c < stim.cycles(); ++c) {
    for (std::size_t i = 0; i < d.a.size(); ++i) {
      stim.values[c][stim.column(d.a[i])] = (((c * 37) >> i) & 1u) != 0;
    }
  }
  const auto tc = fs::measureToggle(fs::GoldenRun(nl::compile(d.n), stim));
  EXPECT_FALSE(tc.passes(0.99));
  EXPECT_GE(tc.untoggled.size(), 8u);  // at least the b inputs
}

// ---------------------------------------------------------------------------
// serial fault simulation
// ---------------------------------------------------------------------------

TEST(SerialFaultSimTest, DetectsObservableStuckAt) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 100, 7, {{d.rst, false}});
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = d.q[0];  // register output: directly observable at `sum`
  faults.push_back(f);
  const auto cd = nl::compile(d.n);
  const auto res = tk::serialOutputs(cd, stim, faults);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].obs);
  EXPECT_FALSE(res[0].pointsDeviated.empty());
}

TEST(SerialFaultSimTest, UndetectableFaultStaysUndetected) {
  // A stuck-at matching the forced input value never differs from golden.
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto c1 = b.constNet(true);
  const auto y = b.bor(a, c1);  // y is always 1
  b.output("o", y);
  const ij::RandomWorkload stim(n, 50, 3);
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = y;
  faults.push_back(f);
  const auto cd = nl::compile(n);
  const auto res = tk::serialOutputs(cd, stim, faults);
  EXPECT_EQ(res.at(0), fs::Observation{});
}

TEST(SerialFaultSimTest, ObservedOutputsRestrictDetection) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 100, 7, {{d.rst, false}});
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = d.q[0];
  faults.push_back(f);
  // Observe only the parity output: a q0 flip changes parity -> detected.
  std::vector<nl::CellId> observed;
  for (nl::CellId po : d.n.primaryOutputs()) {
    if (d.n.cell(po).name == "par") observed.push_back(po);
  }
  ASSERT_EQ(observed.size(), 1u);
  const fs::Watch watch = fs::outputWatch(d.n, observed);
  const auto cd = nl::compile(d.n);
  const auto res = fs::runSerialWatch(
      cd, stim, fs::recordGolden(cd, stim, watch), faults, watch,
      std::nullopt, fs::RetireMode::DetectOnly);
  EXPECT_TRUE(res.observations.at(0).obs);
  EXPECT_EQ(res.observations[0].pointsDeviated,
            std::vector<std::uint32_t>{0});
}

TEST(SerialFaultSimTest, EarlyAbortReducesCycles) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 200, 7, {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  const auto cd = nl::compile(d.n);
  const fs::Watch watch = fs::outputWatch(d.n, d.n.primaryOutputs());
  const fs::GoldenTrace golden = fs::recordGolden(cd, stim, watch);
  const auto run = [&](fs::RetireMode retire) {
    return fs::runSerialWatch(cd, stim, golden, faults, watch, std::nullopt,
                              retire);
  };
  const auto r1 = run(fs::RetireMode::DetectOnly);
  const auto r2 = run(fs::RetireMode::WashoutOnly);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Same verdicts, same first deviation.
    EXPECT_EQ(r1.observations[i].obs, r2.observations[i].obs);
    EXPECT_EQ(r1.observations[i].firstObsCycle,
              r2.observations[i].firstObsCycle);
  }
  EXPECT_LT(r1.cycles, r2.cycles);
}

// The headline property: bit-sliced and serial engines agree on every fault.
class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, SerialAndBitslicedObservationsMatch) {
  DataPath d;
  const ij::RandomWorkload stim(d.n, 120, GetParam(), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);

  const auto cd = nl::compile(d.n);
  const auto serial = tk::serialOutputs(cd, stim, faults);
  const auto sliced = fs::runBitslicedWatch(
      fs::GoldenRun(cd, stim), faults,
      fs::outputWatch(d.n, d.n.primaryOutputs()), std::nullopt,
      fs::RetireMode::DetectOnly);

  ASSERT_EQ(serial.size(), sliced.observations.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial[i], sliced.observations[i]) << faults[i].describe(d.n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Values(1, 2, 3, 17, 99));
