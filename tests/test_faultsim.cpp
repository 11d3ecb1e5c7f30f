// Tests for the fault-simulation engines: toggle coverage with structural
// constant screening, the serial engine, and the serial-vs-bitsliced
// agreement property (the deep bit-sliced suite lives in
// test_bitsliced.cpp).
#include <gtest/gtest.h>

#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/serial.hpp"
#include "faultsim/toggle.hpp"
#include "inject/workload.hpp"
#include "netlist/builder.hpp"
#include "testkit/oracle.hpp"

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
// toggle coverage
// ---------------------------------------------------------------------------

TEST(ToggleTest, RandomStimulusTogglesDataPath) {
  DataPath d;
  const auto cd = nl::compile(d.n);
  const auto tc = fs::measureToggle(
      cd, fs::recordStimulus(cd, ij::RandomWorkload(d.n, 200, 42,
                                                    {{d.rst, false}})));
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
  const ij::FunctionWorkload wl(100, [&](sm::Simulator& sim, std::uint64_t c) {
    sim.setInput(d.rst, sm::Logic::L0);
    sim.setInputBus(d.a, c * 37);
    sim.setInputBus(d.b, 0);
  });
  const auto cd = nl::compile(d.n);
  const auto tc = fs::measureToggle(cd, fs::recordStimulus(cd, wl));
  EXPECT_FALSE(tc.passes(0.99));
  EXPECT_GE(tc.untoggled.size(), 8u);  // at least the b inputs
}

// ---------------------------------------------------------------------------
// serial fault simulation
// ---------------------------------------------------------------------------

TEST(SerialFaultSimTest, DetectsObservableStuckAt) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 100, 7, {{d.rst, false}});
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = d.q[0];  // register output: directly observable at `sum`
  faults.push_back(f);
  const auto cd = nl::compile(d.n);
  const auto res = tk::serialOutputs(cd, fs::recordStimulus(cd, wl), faults);
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
  ij::RandomWorkload wl(n, 50, 3);
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = y;
  faults.push_back(f);
  const auto cd = nl::compile(n);
  const auto res = tk::serialOutputs(cd, fs::recordStimulus(cd, wl), faults);
  EXPECT_EQ(res.at(0), fs::Observation{});
}

TEST(SerialFaultSimTest, ObservedOutputsRestrictDetection) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 100, 7, {{d.rst, false}});
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
  const fs::StimulusTrace stim = fs::recordStimulus(cd, wl);
  const auto res = fs::runSerialWatch(
      cd, stim, fs::recordGolden(cd, stim, watch), faults, watch,
      std::nullopt, fs::RetireMode::DetectOnly);
  EXPECT_TRUE(res.observations.at(0).obs);
  EXPECT_EQ(res.observations[0].pointsDeviated,
            std::vector<std::uint32_t>{0});
}

TEST(SerialFaultSimTest, EarlyAbortReducesCycles) {
  DataPath d;
  ij::RandomWorkload wl(d.n, 200, 7, {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  const auto cd = nl::compile(d.n);
  const fs::Watch watch = fs::outputWatch(d.n, d.n.primaryOutputs());
  const fs::StimulusTrace stim = fs::recordStimulus(cd, wl);
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
  ij::RandomWorkload wl(d.n, 120, GetParam(), {{d.rst, false}});
  ft::FaultList faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);

  const auto cd = nl::compile(d.n);
  const fs::StimulusTrace stim = fs::recordStimulus(cd, wl);
  const auto serial = tk::serialOutputs(cd, stim, faults);
  const auto sliced = fs::runBitslicedWatch(
      cd, stim, faults, fs::outputWatch(d.n, d.n.primaryOutputs()),
      std::nullopt, fs::RetireMode::DetectOnly);

  ASSERT_EQ(serial.size(), sliced.observations.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial[i], sliced.observations[i]) << faults[i].describe(d.n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Values(1, 2, 3, 17, 99));
