// Direct unit tests for faultsim/toggle.cpp: the structural-constant
// screening lattice and the toggle-count coverage measurement behind the
// paper's workload-validation step (b).
#include <gtest/gtest.h>

#include <sstream>

#include "faultsim/toggle.hpp"
#include "netlist/netlist.hpp"

namespace nlx = socfmea::netlist;
namespace fs = socfmea::faultsim;

namespace {

/// in -> buf b1 -> and(with const1) -> out, plus a const0-pinned AND cone.
struct Fixture {
  nlx::Netlist nl{"toggle"};
  nlx::NetId in, buf, c1, c0, live, pinned;

  Fixture() {
    in = nl.addInput("in");
    buf = nl.addNet("buf");
    nl.addCell(nlx::CellType::Buf, "b1", {in}, buf);
    c1 = nl.addNet("c1");
    nl.addCell(nlx::CellType::Const1, "k1", {}, c1);
    c0 = nl.addNet("c0");
    nl.addCell(nlx::CellType::Const0, "k0", {}, c0);
    live = nl.addNet("live");
    nl.addCell(nlx::CellType::And, "a1", {buf, c1}, live);
    pinned = nl.addNet("pinned");
    nl.addCell(nlx::CellType::And, "a0", {buf, c0}, pinned);
    nl.addOutput("o_live", live);
    nl.addOutput("o_pin", pinned);
    nl.check();
  }

  /// measureToggle over `values` driven onto `in`, one row per cycle.
  [[nodiscard]] fs::ToggleCoverage toggle(
      std::vector<std::vector<bool>> values) const {
    fs::StimulusTrace stim;
    stim.inputs = {in};
    stim.values = std::move(values);
    return fs::measureToggle(fs::GoldenRun(nlx::compile(nl), stim));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// structurallyConstantNets
// ---------------------------------------------------------------------------

TEST(StructurallyConstant, ConstantsPropagateThroughControllingInputs) {
  Fixture f;
  const auto constant = fs::structurallyConstantNets(f.nl);
  EXPECT_TRUE(constant[f.c1]);
  EXPECT_TRUE(constant[f.c0]);
  EXPECT_TRUE(constant[f.pinned]);  // AND with a controlling 0
  EXPECT_FALSE(constant[f.in]);
  EXPECT_FALSE(constant[f.buf]);
  EXPECT_FALSE(constant[f.live]);  // AND with a neutral 1 follows its input
}

TEST(StructurallyConstant, InverterAndXorOfConstants) {
  nlx::Netlist nl("k");
  const auto in = nl.addInput("in");
  const auto c1 = nl.addNet("c1");
  nl.addCell(nlx::CellType::Const1, "k1", {}, c1);
  const auto n1 = nl.addNet("n1");
  nl.addCell(nlx::CellType::Not, "inv", {c1}, n1);  // constant 0
  const auto x = nl.addNet("x");
  nl.addCell(nlx::CellType::Xor, "x1", {c1, n1}, x);  // 1 ^ 0 = constant 1
  const auto y = nl.addNet("y");
  nl.addCell(nlx::CellType::Xor, "x2", {in, c1}, y);  // varies with in
  nl.addOutput("o1", x);
  nl.addOutput("o2", y);
  nl.check();
  const auto constant = fs::structurallyConstantNets(nl);
  EXPECT_TRUE(constant[n1]);
  EXPECT_TRUE(constant[x]);
  EXPECT_FALSE(constant[y]);
}

TEST(StructurallyConstant, DisabledAndSelfLoopedFlipFlopsHoldInit) {
  nlx::Netlist nl("ff");
  const auto in = nl.addInput("in");
  const auto c0 = nl.addNet("c0");
  nl.addCell(nlx::CellType::Const0, "k0", {}, c0);
  // en = const0: never captures, q holds its init image forever.
  const auto q1 = nl.addNet("q1");
  nl.addDff("ff1", in, q1, c0, nlx::kNoNet, true);
  // d = q (self loop): captures its own init every cycle.
  const auto q2 = nl.addNet("q2");
  nl.addDff("ff2", q2, q2, nlx::kNoNet, nlx::kNoNet, false);
  // Free-running FF on a live input varies.
  const auto q3 = nl.addNet("q3");
  nl.addDff("ff3", in, q3);
  nl.addOutput("o1", q1);
  nl.addOutput("o2", q2);
  nl.addOutput("o3", q3);
  nl.check();
  const auto constant = fs::structurallyConstantNets(nl);
  EXPECT_TRUE(constant[q1]);
  EXPECT_TRUE(constant[q2]);
  EXPECT_FALSE(constant[q3]);
}

TEST(StructurallyConstant, MemoryReadDataVaries) {
  nlx::Netlist nl("m");
  const auto a = nl.addInput("a");
  const auto w = nl.addInput("w");
  const auto we = nl.addInput("we");
  nlx::MemoryInst mem;
  mem.name = "m0";
  mem.addrBits = 1;
  mem.dataBits = 1;
  mem.addr = {a};
  mem.wdata = {w};
  mem.rdata = {nl.addNet("rd")};
  mem.writeEnable = we;
  nl.addMemory(mem);
  nl.addOutput("o", mem.rdata[0]);
  nl.check();
  const auto constant = fs::structurallyConstantNets(nl);
  EXPECT_FALSE(constant[mem.rdata[0]]);
}

// ---------------------------------------------------------------------------
// measureToggle
// ---------------------------------------------------------------------------

TEST(MeasureToggle, RiseAndFallBothCounted) {
  Fixture f;
  // in: 0 -> 1 -> 0 exercises rise and fall on the live cone.
  const auto tc = f.toggle({{false}, {true}, {false}});
  // c0/c1/pinned are screened out of the denominator.
  EXPECT_EQ(tc.nets, 3u);  // in, buf, live
  EXPECT_EQ(tc.toggledOnce, 3u);
  EXPECT_EQ(tc.toggledBoth, 3u);
  EXPECT_TRUE(tc.untoggled.empty());
  EXPECT_DOUBLE_EQ(tc.onceFraction(), 1.0);
  EXPECT_TRUE(tc.passes());
}

TEST(MeasureToggle, RiseOnlyIsOnceNotBoth) {
  Fixture f;
  const auto tc = f.toggle({{false}, {true}, {true}});
  EXPECT_EQ(tc.toggledOnce, 3u);
  EXPECT_EQ(tc.toggledBoth, 0u);
  EXPECT_LT(tc.bothFraction(), 1.0);
}

TEST(MeasureToggle, PinnedInputReportedUntoggled) {
  Fixture f;
  const auto tc = f.toggle({{false}, {false}, {false}});
  EXPECT_EQ(tc.toggledOnce, 0u);
  EXPECT_EQ(tc.untoggled.size(), 3u);
  EXPECT_FALSE(tc.passes());
  // The report printer lists the untoggled nets by name.
  std::ostringstream out;
  fs::printToggle(out, f.nl, tc);
  EXPECT_NE(out.str().find("buf"), std::string::npos);
}

TEST(MeasureToggle, ThresholdBoundary) {
  fs::ToggleCoverage tc;
  tc.nets = 100;
  tc.toggledOnce = 99;
  EXPECT_TRUE(tc.passes());        // exactly 99 %
  EXPECT_FALSE(tc.passes(0.995));  // stricter threshold fails
  tc.toggledOnce = 98;
  EXPECT_FALSE(tc.passes());
  const fs::ToggleCoverage empty;
  EXPECT_DOUBLE_EQ(empty.onceFraction(), 1.0);  // nothing measurable passes
  EXPECT_TRUE(empty.passes());
}
