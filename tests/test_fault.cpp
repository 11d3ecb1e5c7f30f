// Tests for the fault universe: list generation, structural collapsing and
// the injection harness protocol.
#include <gtest/gtest.h>

#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "fault/harness.hpp"
#include "netlist/builder.hpp"

namespace nl = socfmea::netlist;
namespace ft = socfmea::fault;
namespace sm = socfmea::sim;

namespace {

struct SmallDesign {
  nl::Netlist n{"small"};
  nl::NetId a, b, w, q;
  nl::CellId gate, ff;

  SmallDesign() {
    a = n.addInput("a");
    b = n.addInput("b");
    w = n.addNet("w");
    q = n.addNet("q");
    gate = n.addCell(nl::CellType::And, "g", {a, b}, w);
    ff = n.addDff("r", w, q);
    n.addOutput("o", q);
    n.check();
  }
};

}  // namespace

TEST(FaultListTest, StuckAtCoversGatesFfsInputs) {
  SmallDesign d;
  const auto faults = ft::allStuckAtFaults(d.n);
  // Sites: gate output, FF output, two inputs -> 4 sites x 2 polarities.
  EXPECT_EQ(faults.size(), 8u);
  for (const auto& f : faults) {
    EXPECT_TRUE(f.kind == ft::FaultKind::StuckAt0 ||
                f.kind == ft::FaultKind::StuckAt1);
    EXPECT_NE(f.net, nl::kNoNet);
  }
}

TEST(FaultListTest, ConstantsAdmitOnlyOppositePolarity) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto c0 = b.constNet(false);
  const auto c1 = b.constNet(true);
  const auto y = b.bor(c0, c1);
  b.output("o", y);
  const auto faults = ft::allStuckAtFaults(n);
  for (const auto& f : faults) {
    const auto& drv = n.cell(n.net(f.net).driver);
    if (drv.type == nl::CellType::Const0) {
      EXPECT_EQ(f.kind, ft::FaultKind::StuckAt1);
    }
    if (drv.type == nl::CellType::Const1) {
      EXPECT_EQ(f.kind, ft::FaultKind::StuckAt0);
    }
  }
}

TEST(FaultListTest, SeuAndDelayPerFlipFlop) {
  SmallDesign d;
  EXPECT_EQ(ft::allSeuFaults(d.n).size(), 1u);
  EXPECT_EQ(ft::allDelayFaults(d.n).size(), 1u);
  EXPECT_EQ(ft::allSeuFaults(d.n)[0].cell, d.ff);
}

TEST(FaultListTest, SetPerGate) {
  SmallDesign d;
  const auto faults = ft::allSetFaults(d.n);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].cell, d.gate);
}

TEST(FaultListTest, BridgingPairsShareAReader) {
  SmallDesign d;
  sm::Rng rng(3);
  const auto faults = ft::bridgingFaults(d.n, 10, rng);
  // Only candidate pair: (a, b) feeding the AND -> and + or variants.
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(std::min(faults[0].net, faults[0].net2), std::min(d.a, d.b));
}

TEST(FaultListTest, MemoryFaultsCoverAllKinds) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 3);
  const auto din = b.inputBus("d", 4);
  const auto we = b.input("we");
  nl::Bus r(4);
  for (int i = 0; i < 4; ++i) r[i] = n.addNet("r" + std::to_string(i));
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 3;
  m.dataBits = 4;
  m.addr = a;
  m.wdata = din;
  m.rdata = r;
  m.writeEnable = we;
  n.addMemory(std::move(m));
  b.outputBus("q", r);

  sm::Rng rng(11);
  const auto faults = ft::memoryFaults(n, 0, 2, rng);
  int kinds[16] = {};
  for (const auto& f : faults) kinds[static_cast<int>(f.kind)]++;
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemStuckBit)], 2);
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemAddrNone)], 2);
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemAddrWrong)], 2);
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemAddrMulti)], 2);
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemCoupling)], 2);
  EXPECT_EQ(kinds[static_cast<int>(ft::FaultKind::MemSoftError)], 2);
}

TEST(FaultTest, DescribeIsHumanReadable) {
  SmallDesign d;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt1;
  f.net = d.w;
  EXPECT_EQ(f.describe(d.n), "sa1 net w");
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = d.ff;
  f.cycle = 12;
  EXPECT_EQ(f.describe(d.n), "seu ff r @12");
}

TEST(FaultTest, TransientClassification) {
  EXPECT_TRUE(ft::isTransient(ft::FaultKind::SeuFlip));
  EXPECT_TRUE(ft::isTransient(ft::FaultKind::SetPulse));
  EXPECT_TRUE(ft::isTransient(ft::FaultKind::MemSoftError));
  EXPECT_FALSE(ft::isTransient(ft::FaultKind::StuckAt0));
  EXPECT_FALSE(ft::isTransient(ft::FaultKind::BridgeAnd));
  EXPECT_FALSE(ft::isTransient(ft::FaultKind::MemStuckBit));
}

// ---------------------------------------------------------------------------
// collapsing
// ---------------------------------------------------------------------------

TEST(CollapseTest, BufferChainCollapses) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto w1 = b.bbuf(a);
  const auto w2 = b.bbuf(w1);
  b.output("o", w2);
  auto faults = ft::allStuckAtFaults(n);
  const std::size_t before = faults.size();
  const auto stats = ft::collapseStuckAt(n, faults);
  EXPECT_EQ(stats.before, before);
  // a, w1, w2 each had sa0/sa1 = 6; all collapse onto net a -> 2 remain.
  EXPECT_EQ(stats.after, 2u);
  for (const auto& f : faults) EXPECT_EQ(f.net, a);
}

TEST(CollapseTest, InverterFlipsPolarity) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto w = b.bnot(a);
  b.output("o", w);
  auto faults = ft::FaultList{};
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt0;
  f.net = w;
  faults.push_back(f);
  ft::collapseStuckAt(n, faults);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].net, a);
  EXPECT_EQ(faults[0].kind, ft::FaultKind::StuckAt1);  // polarity flipped
}

TEST(CollapseTest, FanoutBlocksCollapse) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto w = b.bbuf(a);
  const auto y = b.band(a, w);  // `a` has a second reader
  b.output("o", y);
  ft::FaultList faults;
  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt0;
  f.net = w;
  faults.push_back(f);
  ft::collapseStuckAt(n, faults);
  EXPECT_EQ(faults[0].net, w);  // must NOT collapse through the fanout
}

TEST(CollapseTest, Idempotent) {
  SmallDesign d;
  auto faults = ft::allStuckAtFaults(d.n);
  ft::collapseStuckAt(d.n, faults);
  const auto once = faults;
  ft::collapseStuckAt(d.n, faults);
  EXPECT_EQ(faults, once);
}

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

TEST(HarnessTest, StuckAtInstallAndRemove) {
  SmallDesign d;
  sm::Simulator sim(d.n);
  sim.setInput(d.a, sm::Logic::L1);
  sim.setInput(d.b, sm::Logic::L1);

  ft::Fault f;
  f.kind = ft::FaultKind::StuckAt0;
  f.net = d.w;
  ft::FaultHarness h(f);
  h.install(sim);
  sim.evalComb();
  EXPECT_EQ(sim.value(d.w), sm::Logic::L0);
  h.remove(sim);
  sim.evalComb();
  EXPECT_EQ(sim.value(d.w), sm::Logic::L1);
}

TEST(HarnessTest, SeuFiresOnlyAtItsCycle) {
  SmallDesign d;
  sm::Simulator sim(d.n);
  sim.setInput(d.a, sm::Logic::L0);
  sim.setInput(d.b, sm::Logic::L0);
  sim.step();  // FF now holds 0

  ft::Fault f;
  f.kind = ft::FaultKind::SeuFlip;
  f.cell = d.ff;
  f.cycle = 2;
  ft::FaultHarness h(f);
  h.install(sim);
  h.beforeCycle(sim, 1);
  EXPECT_EQ(sim.ffState(d.ff), sm::Logic::L0);  // not yet
  h.beforeCycle(sim, 2);
  EXPECT_EQ(sim.ffState(d.ff), sm::Logic::L1);  // flipped
}

TEST(HarnessTest, SetPulseInvertsAndReleases) {
  SmallDesign d;
  sm::Simulator sim(d.n);
  sim.setInput(d.a, sm::Logic::L1);
  sim.setInput(d.b, sm::Logic::L1);

  ft::Fault f;
  f.kind = ft::FaultKind::SetPulse;
  f.net = d.w;
  f.cycle = 0;
  ft::FaultHarness h(f);
  h.install(sim);
  sim.evalComb();
  ASSERT_TRUE(h.wantsPulse(0));
  h.applyPulse(sim);
  sim.evalComb();
  EXPECT_EQ(sim.value(d.w), sm::Logic::L0);  // inverted
  sim.clockEdge();
  h.afterEdge(sim);
  sim.evalComb();
  EXPECT_EQ(sim.value(d.w), sm::Logic::L1);  // released
  EXPECT_FALSE(h.wantsPulse(1));
}

TEST(HarnessTest, MemoryFaultInstallsAndClears) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 2);
  const auto din = b.inputBus("d", 4);
  const auto we = b.input("we");
  nl::Bus r(4);
  for (int i = 0; i < 4; ++i) r[i] = n.addNet("r" + std::to_string(i));
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 2;
  m.dataBits = 4;
  m.addr = a;
  m.wdata = din;
  m.rdata = r;
  m.writeEnable = we;
  n.addMemory(std::move(m));
  b.outputBus("q", r);

  sm::Simulator sim(n);
  ft::Fault f;
  f.kind = ft::FaultKind::MemStuckBit;
  f.mem = 0;
  f.addr = 1;
  f.bit = 0;
  f.stuckValue = true;
  ft::FaultHarness h(f);
  h.install(sim);
  EXPECT_TRUE(sim.memory(0).hasFaults());
  h.remove(sim);
  EXPECT_FALSE(sim.memory(0).hasFaults());
}

TEST(HarnessTest, DelayFaultTogglesStaleMode) {
  SmallDesign d;
  sm::Simulator sim(d.n);
  ft::Fault f;
  f.kind = ft::FaultKind::DelayStale;
  f.cell = d.ff;
  ft::FaultHarness h(f);
  h.install(sim);
  // Behavioural effect checked in SimulatorTest.StaleSamplingDelaysCapture;
  // here we verify clean removal.
  h.remove(sim);
  sim.setInput(d.a, sm::Logic::L1);
  sim.setInput(d.b, sm::Logic::L1);
  sim.step();
  EXPECT_EQ(sim.ffState(d.ff), sm::Logic::L1);  // no stale capture left over
}
