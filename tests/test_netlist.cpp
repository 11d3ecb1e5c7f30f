// Unit tests for the netlist substrate: cell utilities, graph construction
// and integrity checks, levelization, the builder, and the traversals.
#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/builder.hpp"
#include "netlist/compiled.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "netlist/traversal.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "zones/extract.hpp"

namespace nl = socfmea::netlist;

// ---------------------------------------------------------------------------
// cell utilities
// ---------------------------------------------------------------------------

TEST(CellTest, TypeNamesRoundTrip) {
  for (int t = 0; t <= static_cast<int>(nl::CellType::Output); ++t) {
    const auto type = static_cast<nl::CellType>(t);
    nl::CellType back{};
    ASSERT_TRUE(nl::cellTypeFromName(nl::cellTypeName(type), back));
    EXPECT_EQ(back, type);
  }
}

TEST(CellTest, UnknownTypeNameRejected) {
  nl::CellType t{};
  EXPECT_FALSE(nl::cellTypeFromName("latch3", t));
  EXPECT_FALSE(nl::cellTypeFromName("", t));
}

TEST(CellTest, CombinationalClassification) {
  EXPECT_TRUE(nl::isCombinational(nl::CellType::And));
  EXPECT_TRUE(nl::isCombinational(nl::CellType::Mux2));
  EXPECT_TRUE(nl::isCombinational(nl::CellType::Const0));
  EXPECT_FALSE(nl::isCombinational(nl::CellType::Dff));
  EXPECT_FALSE(nl::isCombinational(nl::CellType::Input));
  EXPECT_FALSE(nl::isCombinational(nl::CellType::Output));
  EXPECT_TRUE(nl::isSequential(nl::CellType::Dff));
  EXPECT_FALSE(nl::isSequential(nl::CellType::And));
}

TEST(CellTest, HierPrefixAndLeaf) {
  EXPECT_EQ(nl::hierPrefix("a/b/c"), "a/b");
  EXPECT_EQ(nl::leafName("a/b/c"), "c");
  EXPECT_EQ(nl::hierPrefix("flat"), "");
  EXPECT_EQ(nl::leafName("flat"), "flat");
}

TEST(CellTest, RegisterStemUnderscoreForm) {
  int bit = -1;
  EXPECT_EQ(nl::registerStem("reg_12", bit), "reg");
  EXPECT_EQ(bit, 12);
  EXPECT_EQ(nl::registerStem("u/dp/data_0", bit), "u/dp/data");
  EXPECT_EQ(bit, 0);
}

TEST(CellTest, RegisterStemBracketForm) {
  int bit = -1;
  EXPECT_EQ(nl::registerStem("reg[7]", bit), "reg");
  EXPECT_EQ(bit, 7);
}

TEST(CellTest, RegisterStemNoIndex) {
  int bit = 99;
  EXPECT_EQ(nl::registerStem("state", bit), "state");
  EXPECT_EQ(bit, -1);
  EXPECT_EQ(nl::registerStem("foo_bar", bit), "foo_bar");
  EXPECT_EQ(bit, -1);
}

// ---------------------------------------------------------------------------
// netlist graph
// ---------------------------------------------------------------------------

TEST(NetlistTest, BasicConstruction) {
  nl::Netlist n("t");
  const auto a = n.addInput("a");
  const auto b = n.addInput("b");
  const auto y = n.addNet("y");
  n.addCell(nl::CellType::And, "g1", {a, b}, y);
  n.addOutput("out", y);
  EXPECT_EQ(n.netCount(), 3u);
  EXPECT_EQ(n.cellCount(), 4u);  // two input ports, the gate, the output
  EXPECT_EQ(n.gateCount(), 1u);
  EXPECT_NO_THROW(n.check());
}

TEST(NetlistTest, DuplicateNetNameRejected) {
  nl::Netlist n;
  n.addNet("w");
  EXPECT_THROW(n.addNet("w"), nl::NetlistError);
}

TEST(NetlistTest, DuplicateCellNameRejected) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto y1 = n.addNet("y1");
  const auto y2 = n.addNet("y2");
  n.addCell(nl::CellType::Buf, "g", {a}, y1);
  EXPECT_THROW(n.addCell(nl::CellType::Buf, "g", {a}, y2), nl::NetlistError);
}

TEST(NetlistTest, MultipleDriversRejected) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto y = n.addNet("y");
  n.addCell(nl::CellType::Buf, "g1", {a}, y);
  EXPECT_THROW(n.addCell(nl::CellType::Not, "g2", {a}, y), nl::NetlistError);
}

TEST(NetlistTest, ArityValidated) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto y = n.addNet("y");
  // AND needs at least two inputs.
  EXPECT_THROW(n.addCell(nl::CellType::And, "g", {a}, y), nl::NetlistError);
  // NOT takes exactly one.
  const auto b = n.addInput("b");
  EXPECT_THROW(n.addCell(nl::CellType::Not, "g2", {a, b}, y),
               nl::NetlistError);
}

// Every design that fails the design-rule check is refused by everything
// that compiles it: netlist::compile, the simulator and the zone extractor.
// A Mux2 or Not short of an input would otherwise read past its fan-in.
TEST(NetlistTest, DesignRuleViolationsDoNotCompile) {
  const auto undriven = [] {
    nl::Netlist n{"undriven"};
    const auto a = n.addInput("a");
    const auto y = n.addNet("y");
    n.addCell(nl::CellType::And, "g", {a, n.addNet("floating")}, y);
    n.addOutput("o", y);
    return n;
  };
  const auto muxPin = [] {
    nl::Netlist n{"mux_pin"};
    const auto s = n.addInput("s");
    const auto a = n.addInput("a");
    const auto y = n.addNet("y");
    n.addCell(nl::CellType::Mux2, "m", {s, a, nl::kNoNet}, y);
    n.addOutput("o", y);
    return n;
  };
  const auto notPin = [] {
    nl::Netlist n{"not_pin"};
    const auto y = n.addNet("y");
    n.addCell(nl::CellType::Not, "inv", {nl::kNoNet}, y);
    n.addOutput("o", y);
    return n;
  };
  const auto loop = [] {
    nl::Netlist n{"loop"};
    const auto a = n.addInput("a");
    const auto w1 = n.addNet("w1");
    const auto w2 = n.addNet("w2");
    n.addCell(nl::CellType::And, "g1", {a, w2}, w1);
    n.addCell(nl::CellType::Not, "g2", {w1}, w2);
    n.addOutput("o", w1);
    return n;
  };
  for (const nl::Netlist& n : {undriven(), muxPin(), notPin(), loop()}) {
    SCOPED_TRACE(n.name());
    EXPECT_THROW(n.check(), nl::NetlistError);
    EXPECT_THROW((void)nl::compile(n), nl::NetlistError);
    EXPECT_THROW(socfmea::sim::Simulator{n}, nl::NetlistError);
    EXPECT_THROW((void)socfmea::zones::extractZones(n), nl::NetlistError);
  }
}

TEST(NetlistTest, FindByName) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  EXPECT_EQ(n.findNet("a"), a);
  EXPECT_FALSE(n.findNet("zz").has_value());
  EXPECT_TRUE(n.findCell("a.in").has_value());
  EXPECT_FALSE(n.findCell("zz").has_value());
}

TEST(NetlistTest, DffOptionalPins) {
  nl::Netlist n;
  const auto d = n.addInput("d");
  const auto q = n.addNet("q");
  const auto id = n.addDff("r", d, q);
  EXPECT_EQ(n.cell(id).inputs[nl::DffPins::kEn], nl::kNoNet);
  EXPECT_EQ(n.cell(id).inputs[nl::DffPins::kRst], nl::kNoNet);
  n.addOutput("o", q);
  EXPECT_NO_THROW(n.check());
}

TEST(NetlistTest, MemoryPortWidthValidated) {
  nl::Netlist n;
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 2;
  m.dataBits = 1;
  m.addr = {n.addInput("a0")};  // too narrow
  m.wdata = {n.addInput("d0")};
  m.rdata = {n.addNet("r0")};
  m.writeEnable = n.addInput("we");
  EXPECT_THROW(n.addMemory(std::move(m)), nl::NetlistError);
}

TEST(NetlistTest, MemoryRdataMustBeFresh) {
  nl::Netlist n;
  const auto a = n.addInput("a0");
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 1;
  m.dataBits = 1;
  m.addr = {a};
  m.wdata = {n.addInput("d0")};
  m.rdata = {a};  // already driven by the input port
  m.writeEnable = n.addInput("we");
  EXPECT_THROW(n.addMemory(std::move(m)), nl::NetlistError);
}

// ---------------------------------------------------------------------------
// levelization
// ---------------------------------------------------------------------------

TEST(LevelizeTest, OrderRespectsDependencies) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto b = n.addInput("b");
  const auto w1 = n.addNet("w1");
  const auto w2 = n.addNet("w2");
  const auto g1 = n.addCell(nl::CellType::And, "g1", {a, b}, w1);
  const auto g2 = n.addCell(nl::CellType::Not, "g2", {w1}, w2);
  n.addOutput("o", w2);
  const auto lev = nl::levelize(n);
  ASSERT_EQ(lev.order.size(), 2u);
  const auto pos = [&](nl::CellId id) {
    return std::find(lev.order.begin(), lev.order.end(), id) -
           lev.order.begin();
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_EQ(lev.level[g1], 0u);
  EXPECT_EQ(lev.level[g2], 1u);
  EXPECT_EQ(lev.maxLevel, 1u);
}

TEST(LevelizeTest, CombinationalCycleDetected) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto w1 = n.addNet("w1");
  const auto w2 = n.addNet("w2");
  n.addCell(nl::CellType::And, "g1", {a, w2}, w1);
  n.addCell(nl::CellType::Not, "g2", {w1}, w2);
  EXPECT_THROW(nl::levelize(n), nl::NetlistError);
}

TEST(LevelizeTest, DffBreaksCycle) {
  nl::Netlist n;
  const auto q = n.addNet("q");
  const auto nq = n.addNet("nq");
  n.addCell(nl::CellType::Not, "inv", {q}, nq);
  n.addDff("r", nq, q);  // toggle flop: loop through the register is fine
  EXPECT_NO_THROW(nl::levelize(n));
}

// ---------------------------------------------------------------------------
// builder
// ---------------------------------------------------------------------------

TEST(BuilderTest, ScopedNaming) {
  nl::Netlist n;
  nl::Builder b(n);
  b.pushScope("u_top");
  b.pushScope("u_sub");
  EXPECT_EQ(b.qualify("x"), "u_top/u_sub/x");
  b.popScope();
  EXPECT_EQ(b.qualify("x"), "u_top/x");
}

TEST(BuilderTest, ConstantsEvaluate) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto c0 = b.constNet(false);
  const auto c1 = b.constNet(true);
  EXPECT_NE(c0, c1);
  EXPECT_EQ(n.cell(n.net(c0).driver).type, nl::CellType::Const0);
  EXPECT_EQ(n.cell(n.net(c1).driver).type, nl::CellType::Const1);
}

TEST(BuilderTest, SliceAndConcat) {
  nl::Bus bus{1, 2, 3, 4, 5};
  const auto s = nl::Builder::slice(bus, 1, 3);
  EXPECT_EQ(s, (nl::Bus{2, 3, 4}));
  const auto c = nl::Builder::concat({1, 2}, {3});
  EXPECT_EQ(c, (nl::Bus{1, 2, 3}));
}

TEST(BuilderTest, RegisterBusNamesBits) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto d = b.inputBus("d", 4);
  b.registerBus("r", d);
  EXPECT_TRUE(n.findCell("r_0").has_value());
  EXPECT_TRUE(n.findCell("r_3").has_value());
  int bit = -1;
  EXPECT_EQ(nl::registerStem("r_3", bit), "r");
}

// ---------------------------------------------------------------------------
// traversal
// ---------------------------------------------------------------------------

namespace {

// A two-stage design: in -> g1 -> r1 -> g2 -> r2 -> out, plus a side input
// feeding g2 only.
struct Pipe {
  nl::Netlist n;
  nl::NetId in, side, w1, q1, w2, q2;
  nl::CellId g1, g2, r1, r2;

  Pipe() {
    in = n.addInput("in");
    side = n.addInput("side");
    w1 = n.addNet("w1");
    q1 = n.addNet("q1");
    w2 = n.addNet("w2");
    q2 = n.addNet("q2");
    g1 = n.addCell(nl::CellType::Not, "g1", {in}, w1);
    r1 = n.addDff("r1", w1, q1);
    g2 = n.addCell(nl::CellType::And, "g2", {q1, side}, w2);
    r2 = n.addDff("r2", w2, q2);
    n.addOutput("out", q2);
  }
};

}  // namespace

TEST(TraversalTest, FaninConeStopsAtRegisters) {
  Pipe p;
  const auto cone = nl::faninCone(*nl::compile(p.n), {p.w2});
  // g2 is in the cone; g1 is behind register r1 and must not be.
  EXPECT_EQ(cone.gates, (std::vector<nl::CellId>{p.g2}));
  EXPECT_EQ(cone.supportFfs, (std::vector<nl::CellId>{p.r1}));
  ASSERT_EQ(cone.supportPis.size(), 1u);  // the side input only
}

TEST(TraversalTest, FaninConeStopsAtMemoryReadPort) {
  // One gate reads two rdata bits of one memory; the memory's write side is
  // driven by primary inputs.
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto d0 = n.addInput("d0");
  const auto d1 = n.addInput("d1");
  const auto we = n.addInput("we");
  const auto r0 = n.addNet("r0");
  const auto r1 = n.addNet("r1");
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 1;
  m.dataBits = 2;
  m.addr = {a};
  m.wdata = {d0, d1};
  m.rdata = {r0, r1};
  m.writeEnable = we;
  const auto mem = n.addMemory(std::move(m));
  const auto y = n.addNet("y");
  const auto g = n.addCell(nl::CellType::And, "g", {r0, r1}, y);
  n.addOutput("o", y);

  const auto cone = nl::faninCone(*nl::compile(n), {y});
  EXPECT_EQ(cone.gates, (std::vector<nl::CellId>{g}));
  EXPECT_EQ(cone.supportMems, (std::vector<nl::MemoryId>{mem}));
  EXPECT_TRUE(cone.supportPis.empty());
  EXPECT_TRUE(cone.supportFfs.empty());
  // None of the write-side nets (a, d0, d1, we) is in the cone.
  EXPECT_EQ(cone.nets, (std::vector<nl::NetId>{r0, r1, y}));
}

TEST(TraversalTest, ForwardReachThroughRegisters) {
  Pipe p;
  const auto combOnly = nl::forwardReach(p.n, {p.w1}, false);
  // Stops at r1: g2, r2 and the output are not reached combinationally.
  EXPECT_TRUE(std::find(combOnly.begin(), combOnly.end(), p.r1) !=
              combOnly.end());
  EXPECT_TRUE(std::find(combOnly.begin(), combOnly.end(), p.g2) ==
              combOnly.end());
  const auto full = nl::forwardReach(p.n, {p.w1}, true);
  EXPECT_TRUE(std::find(full.begin(), full.end(), p.g2) != full.end());
  EXPECT_TRUE(std::find(full.begin(), full.end(), p.r2) != full.end());
}

TEST(TraversalTest, ForwardReachThroughMemory) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto d = n.addInput("d");
  const auto we = n.addInput("we");
  const auto r = n.addNet("r");
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 1;
  m.dataBits = 1;
  m.addr = {a};
  m.wdata = {d};
  m.rdata = {r};
  m.writeEnable = we;
  n.addMemory(std::move(m));
  const auto y = n.addNet("y");
  n.addCell(nl::CellType::Buf, "g", {r}, y);
  const auto po = n.addOutput("o", y);

  const auto noMem = nl::forwardReach(n, {d}, true, false);
  EXPECT_TRUE(std::find(noMem.begin(), noMem.end(), po) == noMem.end());
  const auto withMem = nl::forwardReach(n, {d}, true, true);
  EXPECT_TRUE(std::find(withMem.begin(), withMem.end(), po) != withMem.end());
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(StatsTest, CountsMatchDesign) {
  Pipe p;
  const auto s = nl::computeStats(p.n);
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.flipFlops, 2u);
  EXPECT_EQ(s.primaryInputs, 2u);
  EXPECT_EQ(s.primaryOutputs, 1u);
  EXPECT_EQ(s.memories, 0u);
  EXPECT_EQ(s.maxDepth, 0u);  // each gate is fed by sources only
}

// ---------------------------------------------------------------------------
// property: the builder's adder matches integer addition
// ---------------------------------------------------------------------------

class AdderProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdderProperty, MatchesIntegerAddition) {
  const std::size_t width = GetParam();
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", width);
  const auto c = b.inputBus("b", width);
  const auto sum = b.adder(a, c);
  b.outputBus("s", sum);
  n.check();

  socfmea::sim::Simulator sim(n);
  socfmea::sim::Rng rng(width * 1234567);
  const std::uint64_t mask = width >= 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << width) - 1;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.next() & mask;
    const std::uint64_t y = rng.next() & mask;
    sim.setInputBus(a, x);
    sim.setInputBus(c, y);
    sim.evalComb();
    EXPECT_EQ(sim.busValue(sum), (x + y) & mask) << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderProperty,
                         ::testing::Values(1, 2, 3, 8, 16, 32, 48));

class EqualConstProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EqualConstProperty, MatchesComparison) {
  const std::uint64_t target = GetParam();
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 6);
  const auto eq = b.equalConst(a, target);
  b.output("eq", eq);
  socfmea::sim::Simulator sim(n);
  for (std::uint64_t v = 0; v < 64; ++v) {
    sim.setInputBus(a, v);
    sim.evalComb();
    EXPECT_EQ(sim.value(eq) == socfmea::sim::Logic::L1, v == target);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, EqualConstProperty,
                         ::testing::Values(0, 1, 7, 21, 38, 63));

// ---------------------------------------------------------------------------
// compiled design IR
// ---------------------------------------------------------------------------

TEST(CompiledTest, MirrorsPipeStructure) {
  Pipe p;
  const auto cd = nl::compile(p.n);
  EXPECT_EQ(&cd->design(), &p.n);
  EXPECT_EQ(cd->netCount(), p.n.netCount());
  EXPECT_EQ(cd->cellCount(), p.n.cellCount());
  EXPECT_EQ(cd->combCount(), 2u);

  // Order positions exist exactly for the combinational core.
  EXPECT_NE(cd->posOfCell(p.g1), nl::CompiledDesign::kNoPos);
  EXPECT_NE(cd->posOfCell(p.g2), nl::CompiledDesign::kNoPos);
  EXPECT_EQ(cd->posOfCell(p.r1), nl::CompiledDesign::kNoPos);
  EXPECT_EQ(cd->combCell(cd->posOfCell(p.g2)), p.g2);

  // Net sources name the driver by kind.
  EXPECT_EQ(cd->netSource(p.in).kind, nl::NetSourceKind::Input);
  EXPECT_EQ(cd->netSource(p.w1).kind, nl::NetSourceKind::Comb);
  EXPECT_EQ(cd->netSource(p.w1).id, p.g1);
  EXPECT_EQ(cd->netSource(p.q1).kind, nl::NetSourceKind::Ff);
  EXPECT_EQ(cd->netSource(p.q1).id, p.r1);

  // Fanin preserves pin order.
  const auto fin = cd->fanin(p.g2);
  ASSERT_EQ(fin.size(), 2u);
  EXPECT_EQ(fin[0], p.q1);
  EXPECT_EQ(fin[1], p.side);

  // Index tables match the Netlist scans.
  EXPECT_EQ(cd->inputs(), p.n.primaryInputs());
  EXPECT_EQ(cd->outputs(), p.n.primaryOutputs());
  EXPECT_EQ(cd->ffs(), p.n.flipFlops());
}

TEST(CompiledTest, CsrFanoutMatchesNetFanout) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 8);
  const auto c = b.inputBus("b", 8);
  const auto sum = b.adder(a, c);
  const auto rst = b.input("rst");
  const auto q = b.registerBus("r", sum, nl::kNoNet, rst, 0);
  b.outputBus("s", q);
  n.check();

  const auto cd = nl::compile(n);
  for (nl::NetId net = 0; net < n.netCount(); ++net) {
    const auto span = cd->fanout(net);
    const std::vector<nl::CellId> csr(span.begin(), span.end());
    EXPECT_EQ(csr, n.net(net).fanout) << "net " << net;
    EXPECT_EQ(cd->fanoutCount(net), n.net(net).fanout.size());
  }
}

TEST(CompiledTest, LevelRangesAreTopological) {
  nl::Netlist n;
  nl::Builder b(n);
  const auto a = b.inputBus("a", 16);
  const auto c = b.inputBus("b", 16);
  b.outputBus("s", b.adder(a, c));  // long carry chain => many levels
  n.check();

  const auto cd = nl::compile(n);
  ASSERT_GT(cd->levelCount(), 1u);
  // The level ranges partition [0, combCount) and agree with combLevel.
  EXPECT_EQ(cd->levelBegin(0), 0u);
  EXPECT_EQ(cd->levelEnd(cd->levelCount() - 1), cd->combCount());
  for (std::uint32_t l = 0; l < cd->levelCount(); ++l) {
    EXPECT_LE(cd->levelBegin(l), cd->levelEnd(l));
    if (l > 0) {
      EXPECT_EQ(cd->levelBegin(l), cd->levelEnd(l - 1));
    }
    for (std::uint32_t pos = cd->levelBegin(l); pos < cd->levelEnd(l); ++pos) {
      EXPECT_EQ(cd->combLevel(pos), l);
    }
  }
  // Topological invariant: every combinational input comes from a strictly
  // lower level (the event-driven settle loop depends on this).
  for (std::uint32_t pos = 0; pos < cd->combCount(); ++pos) {
    for (nl::NetId in : cd->combInputs(pos)) {
      const nl::NetSource& src = cd->netSource(in);
      if (src.kind != nl::NetSourceKind::Comb) continue;
      EXPECT_LT(cd->combLevel(cd->posOfCell(src.id)), cd->combLevel(pos));
    }
  }
  const auto stats = cd->stats();
  EXPECT_EQ(stats.levels, cd->levelCount());
  EXPECT_EQ(stats.combCells, cd->combCount());
}

TEST(CompiledTest, MemoryNetsResolved) {
  nl::Netlist n;
  const auto a = n.addInput("a");
  const auto d = n.addInput("d");
  const auto we = n.addInput("we");
  const auto r = n.addNet("r");
  nl::MemoryInst m;
  m.name = "m";
  m.addrBits = 1;
  m.dataBits = 1;
  m.addr = {a};
  m.wdata = {d};
  m.rdata = {r};
  m.writeEnable = we;
  n.addMemory(std::move(m));
  const auto y = n.addNet("y");
  n.addCell(nl::CellType::Buf, "g", {r}, y);
  n.addOutput("o", y);

  const auto cd = nl::compile(n);
  EXPECT_EQ(cd->netSource(r).kind, nl::NetSourceKind::Memory);
  EXPECT_EQ(cd->netSource(r).id, 0u);
  EXPECT_EQ(cd->netSource(r).bit, 0u);
  // addr / wdata / we all feed memory 0's write side.
  for (nl::NetId net : {a, d, we}) {
    const auto sinks = cd->memWriteSinks(net);
    ASSERT_EQ(sinks.size(), 1u) << "net " << net;
    EXPECT_EQ(sinks[0], 0u);
  }
  EXPECT_TRUE(cd->memWriteSinks(y).empty());
}
