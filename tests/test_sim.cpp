// Tests for the simulator: two-valued logic, cycle semantics, flip-flop
// enable/reset behaviour, memory ports, fault hooks, evaluation modes and
// the RNG.
#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/builder.hpp"
#include "sim/logic4.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace nl = socfmea::netlist;
namespace sm = socfmea::sim;
using sm::Logic;

// ---------------------------------------------------------------------------
// logic4
// ---------------------------------------------------------------------------

TEST(Logic4Test, NotTable) {
  EXPECT_EQ(sm::logicNot(Logic::L0), Logic::L1);
  EXPECT_EQ(sm::logicNot(Logic::L1), Logic::L0);
}

// Exhaustive truth tables for every combinational cell type against plain
// bool logic: the n-input gates at two and three inputs, the others at their
// own arity (Mux2: {sel, a, b}).
class GateTruthTable
    : public ::testing::TestWithParam<std::tuple<nl::CellType, int>> {};

TEST_P(GateTruthTable, MatchesBoolean) {
  const auto [type, combo] = GetParam();
  const bool a = combo & 1;
  const bool b = combo & 2;
  const bool c = combo & 4;
  const Logic in[] = {sm::fromBool(a), sm::fromBool(b), sm::fromBool(c)};
  const auto eval = [&](std::size_t arity) {
    return sm::evalCell(type, std::span<const Logic>(in, arity));
  };
  const auto expectGate = [&](bool two, bool three) {
    EXPECT_EQ(eval(2), sm::fromBool(two));
    EXPECT_EQ(eval(3), sm::fromBool(three));
  };
  switch (type) {
    case nl::CellType::Const0:
      EXPECT_EQ(eval(0), Logic::L0);
      break;
    case nl::CellType::Const1:
      EXPECT_EQ(eval(0), Logic::L1);
      break;
    case nl::CellType::Buf:
      EXPECT_EQ(eval(1), sm::fromBool(a));
      break;
    case nl::CellType::Not:
      EXPECT_EQ(eval(1), sm::fromBool(!a));
      break;
    case nl::CellType::Mux2:
      EXPECT_EQ(eval(3), sm::fromBool(a ? c : b));
      break;
    case nl::CellType::And: expectGate(a && b, a && b && c); break;
    case nl::CellType::Or: expectGate(a || b, a || b || c); break;
    case nl::CellType::Nand: expectGate(!(a && b), !(a && b && c)); break;
    case nl::CellType::Nor: expectGate(!(a || b), !(a || b || c)); break;
    case nl::CellType::Xor: expectGate(a != b, (a != b) != c); break;
    case nl::CellType::Xnor: expectGate(a == b, (a != b) == c); break;
    default: FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGatesAllInputs, GateTruthTable,
    ::testing::Combine(
        ::testing::Values(nl::CellType::And, nl::CellType::Or,
                          nl::CellType::Nand, nl::CellType::Nor,
                          nl::CellType::Xor, nl::CellType::Xnor,
                          nl::CellType::Buf, nl::CellType::Not,
                          nl::CellType::Mux2, nl::CellType::Const0,
                          nl::CellType::Const1),
        ::testing::Range(0, 8)));

// ---------------------------------------------------------------------------
// simulator
// ---------------------------------------------------------------------------

namespace {

// 4-bit counter with enable and synchronous reset.
struct Counter {
  nl::Netlist n{"counter"};
  nl::NetId rst, en;
  nl::Bus q;

  Counter() {
    nl::Builder b(n);
    rst = b.input("rst");
    en = b.input("en");
    q.resize(4);
    for (int i = 0; i < 4; ++i) q[i] = n.addNet("q" + std::to_string(i));
    const auto inc = b.incrementer(q);
    for (int i = 0; i < 4; ++i) {
      n.addDff("c_" + std::to_string(i), inc[i], q[i], en, rst, false);
    }
    b.outputBus("count", q);
    n.check();
  }
};

}  // namespace

TEST(SimulatorTest, CounterCountsWhenEnabled) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.run(5);
  EXPECT_EQ(sim.busValue(c.q), 5u);
}

TEST(SimulatorTest, EnableHoldsState) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.run(3);
  sim.setInput(c.en, Logic::L0);
  sim.run(10);
  EXPECT_EQ(sim.busValue(c.q), 3u);
}

TEST(SimulatorTest, SynchronousResetClears) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.run(7);
  sim.setInput(c.rst, Logic::L1);
  sim.step();
  EXPECT_EQ(sim.busValue(c.q), 0u);
}

TEST(SimulatorTest, ResetRestoresInitialState) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.run(9);
  sim.reset();
  EXPECT_EQ(sim.cycle(), 0u);
  EXPECT_EQ(sim.busValue(c.q), 0u);
}

TEST(SimulatorTest, SetInputOnNonInputThrows) {
  Counter c;
  sm::Simulator sim(c.n);
  EXPECT_THROW(sim.setInput(c.q[0], Logic::L1), std::invalid_argument);
  EXPECT_THROW(sim.setInput("nonexistent", true), std::invalid_argument);
}

TEST(SimulatorTest, ValueOutOfRangeThrows) {
  Counter c;
  sm::Simulator sim(c.n);
  EXPECT_THROW((void)sim.value(static_cast<nl::NetId>(c.n.netCount())),
               std::out_of_range);
  EXPECT_THROW((void)sim.value(static_cast<nl::NetId>(0xFFFFFFFFu)),
               std::out_of_range);
  try {
    (void)sim.value(static_cast<nl::NetId>(c.n.netCount() + 5));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The diagnostic names the offending id and the design.
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("counter"), std::string::npos);
  }
}

TEST(SimulatorTest, EvalModesProduceIdenticalValues) {
  Counter c;
  sm::Simulator ev(c.n);
  sm::Simulator full(c.n);
  full.setEvalMode(sm::EvalMode::FullSettle);
  ASSERT_EQ(ev.evalMode(), sm::EvalMode::EventDriven);
  for (int cyc = 0; cyc < 12; ++cyc) {
    const Logic en = cyc % 3 == 0 ? Logic::L0 : Logic::L1;
    for (sm::Simulator* s : {&ev, &full}) {
      s->setInput(c.rst, Logic::L0);
      s->setInput(c.en, en);
      if (cyc == 4) s->forceNet(c.q[1], Logic::L1);
      if (cyc == 7) s->releaseNet(c.q[1]);
      if (cyc == 9) s->flipFf(*c.n.findCell("c_2"));
      s->evalComb();
    }
    for (nl::NetId net = 0; net < c.n.netCount(); ++net) {
      ASSERT_EQ(ev.value(net), full.value(net))
          << "cycle " << cyc << " net " << c.n.net(net).name;
    }
    ASSERT_EQ(ev.cycle(), full.cycle());
    ASSERT_TRUE(std::ranges::equal(ev.ffStates(), full.ffStates()))
        << "cycle " << cyc;
    ASSERT_TRUE(std::ranges::equal(ev.ffPrevDs(), full.ffPrevDs()))
        << "cycle " << cyc;
    for (nl::MemoryId m = 0; m < c.n.memoryCount(); ++m) {
      ASSERT_TRUE(std::ranges::equal(ev.memReadReg(m), full.memReadReg(m)))
          << "cycle " << cyc << " memory " << m;
      ASSERT_TRUE(ev.memory(m).stateEquals(full.memory(m)))
          << "cycle " << cyc << " memory " << m;
    }
    ev.clockEdge();
    full.clockEdge();
  }
}

TEST(SimulatorTest, EventDrivenEvaluatesOnlyTheDisturbedCone) {
  // Two independent 8-bit adder cones behind registers: disturbing one
  // input bit of cone A must not re-evaluate cone B's gates.
  nl::Netlist n("twocones");
  nl::Builder b(n);
  const auto rst = b.input("rst");
  const auto a0 = b.inputBus("a0", 8);
  const auto b0 = b.inputBus("b0", 8);
  const auto a1 = b.inputBus("a1", 8);
  const auto b1 = b.inputBus("b1", 8);
  const auto q0 = b.registerBus("r0", b.adder(a0, b0), nl::kNoNet, rst, 0);
  const auto q1 = b.registerBus("r1", b.adder(a1, b1), nl::kNoNet, rst, 0);
  b.outputBus("s0", q0);
  b.outputBus("s1", q1);
  n.check();

  sm::Simulator sim(n);
  sim.setInput(rst, Logic::L0);
  sim.setInputBus(a0, 0x12);
  sim.setInputBus(b0, 0x34);
  sim.setInputBus(a1, 0x56);
  sim.setInputBus(b1, 0x78);
  sim.step();  // settle everything once

  const std::uint64_t gateCount = sim.compiled().stats().combCells;
  sim.resetPerf();
  sim.setInputBus(a0, 0x13);  // single-bit change confined to cone A
  sim.evalComb();
  EXPECT_EQ(sim.busValue(q0 /* registered: unchanged until the edge */),
            (0x12u + 0x34u) & 0xFFu);
  EXPECT_GT(sim.perf().cellEvals, 0u);
  EXPECT_LT(sim.perf().cellEvals, gateCount)
      << "event-driven settle touched the whole graph";
  // Cone B alone is already half the design, so the disturbed cone must be
  // well under half of all gates.
  EXPECT_LT(sim.perf().cellEvals, gateCount / 2);
  EXPECT_EQ(sim.perf().eventSettles, 1u);
  EXPECT_EQ(sim.perf().fullSettles, 0u);

  // An untouched machine settles for free.
  sim.clockEdge();
  sim.resetPerf();
  sim.evalComb();
  sim.evalComb();
  EXPECT_LE(sim.perf().cellEvals, gateCount / 2);
}

TEST(SimulatorTest, ForceNetActsAsStuckAt) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.forceNet(c.q[0], Logic::L0);  // LSB stuck at 0: counts by evens only
  sim.run(4);
  EXPECT_EQ(sim.busValue(c.q) & 1u, 0u);
  sim.releaseNet(c.q[0]);
  sim.run(1);
  // After release the flop's real state drives the net again.
  EXPECT_NO_THROW((void)sim.busValue(c.q));
}

TEST(SimulatorTest, FlipFfInvertsState) {
  Counter c;
  sm::Simulator sim(c.n);
  sim.setInput(c.rst, Logic::L0);
  sim.setInput(c.en, Logic::L1);
  sim.run(2);  // q = 2
  const auto ff0 = *c.n.findCell("c_0");
  sim.flipFf(ff0);
  sim.evalComb();
  EXPECT_EQ(sim.busValue(c.q), 3u);
}

TEST(SimulatorTest, BridgeWiredAnd) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.input("a");
  const auto c = b.input("b");
  const auto y1 = b.bbuf(a);
  const auto y2 = b.bbuf(c);
  b.output("o1", y1);
  b.output("o2", y2);
  sm::Simulator sim(n);
  sim.addBridge(y1, y2, sm::BridgeKind::WiredAnd);
  sim.setInput(a, Logic::L1);
  sim.setInput(c, Logic::L0);
  sim.evalComb();
  EXPECT_EQ(sim.value(y1), Logic::L0);
  EXPECT_EQ(sim.value(y2), Logic::L0);
  sim.clearBridges();
  sim.evalComb();
  EXPECT_EQ(sim.value(y1), Logic::L1);
}

TEST(SimulatorTest, StaleSamplingDelaysCapture) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto d = b.input("d");
  const auto q = n.addNet("q");
  const auto ff = n.addDff("r", d, q);
  b.output("o", q);
  sm::Simulator sim(n);
  sim.setStaleSampling(ff, true);
  sim.setInput(d, Logic::L1);
  sim.step();  // captures the *previous* D (X at init -> stays X/0-ish)
  sim.setInput(d, Logic::L0);
  sim.step();  // captures previous D = 1
  EXPECT_EQ(sim.ffState(ff), Logic::L1);
}

TEST(SimulatorTest, MemorySynchronousReadWrite) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 2);
  const auto d = b.inputBus("d", 8);
  const auto we = b.input("we");
  nl::Bus r(8);
  for (int i = 0; i < 8; ++i) {
    // Two-step concatenation: operator+(const char*, string&&) trips a GCC 12
    // -Wrestrict false positive (PR 105651) under -O2, which -Werror promotes.
    std::string name = "r";
    name += std::to_string(i);
    r[i] = n.addNet(name);
  }
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 2;
  m.dataBits = 8;
  m.addr = a;
  m.wdata = d;
  m.rdata = r;
  m.writeEnable = we;
  n.addMemory(std::move(m));
  b.outputBus("q", r);
  n.check();

  sm::Simulator sim(n);
  sim.setInputBus(a, 2);
  sim.setInputBus(d, 0x5A);
  sim.setInput(we, Logic::L1);
  sim.step();  // write 0x5A @2; read data registers the *old* content
  sim.setInput(we, Logic::L0);
  sim.step();  // read @2
  EXPECT_EQ(sim.busValue(r), 0x5Au);
  EXPECT_EQ(sim.memory(0).peek(2), 0x5Au);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  sm::Rng a(42);
  sm::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  sm::Rng a(1);
  sm::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  sm::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformRoughlyCentered) {
  sm::Rng r(99);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ForkIsIndependentStream) {
  sm::Rng a(5);
  sm::Rng f = a.fork();
  EXPECT_NE(a.next(), f.next());
}
