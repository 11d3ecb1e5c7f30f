// The testkit's own contract: generated designs are check()-clean and
// fully observable, plans round-trip through their text format, the
// differential oracle agrees across every engine/mode combo on random
// cases, a deliberately sabotaged engine is caught, and the shrinker
// reduces such a failure to a minimal repro that replays from .nl + .plan
// files.  The shrunk corpus under tests/corpus/ replays clean as a
// regression anchor, and seeded mutations of it either fail to load or
// replay clean.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "netlist/text_format.hpp"
#include "testkit/netlist_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/plan.hpp"
#include "testkit/seed.hpp"
#include "testkit/shrink.hpp"

namespace tk = socfmea::testkit;
namespace nlx = socfmea::netlist;
using socfmea::sim::Rng;

namespace {

/// Regenerates the exact case `run` of a fuzz_diff campaign.
struct FuzzCase {
  nlx::Netlist nl;
  tk::TestPlan plan;
};

FuzzCase makeCase(std::uint64_t campaignSeed, std::uint64_t run) {
  Rng rng(tk::derivedSeed(campaignSeed, run));
  const auto genOpt = tk::randomOptions(rng);
  FuzzCase c{tk::generateNetlist(genOpt, rng), {}};
  const auto planOpt = tk::randomPlanOptions(rng);
  c.plan = tk::generatePlan(c.nl, planOpt, rng);
  return c;
}

/// Finds a campaign case whose reference run detects at least one fault
/// (so a detection-downgrading sabotage is guaranteed to fire).
FuzzCase makeDetectingCase(std::uint64_t campaignSeed) {
  for (std::uint64_t run = 0; run < 32; ++run) {
    FuzzCase c = makeCase(campaignSeed, run);
    const auto report = tk::runOracle(c.nl, c.plan);
    if (report.pass && report.detected() > 0) return c;
  }
  ADD_FAILURE() << "no detecting case in 32 runs of seed " << campaignSeed;
  return makeCase(campaignSeed, 0);
}

}  // namespace

// ---------------------------------------------------------------------------
// campaign seed helpers
// ---------------------------------------------------------------------------

TEST(TestkitSeed, DerivedSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(tk::derivedSeed(7, 0), tk::derivedSeed(7, 0));
  EXPECT_NE(tk::derivedSeed(7, 0), tk::derivedSeed(7, 1));
  EXPECT_NE(tk::derivedSeed(7, 0), tk::derivedSeed(8, 0));
}

TEST(TestkitSeed, EnvOverride) {
  ::unsetenv("SOCFMEA_TEST_SEED");
  std::uint64_t v = 0;
  EXPECT_FALSE(tk::envSeed(&v));
  // Unset: testSeed preserves the historical per-test literal exactly.
  EXPECT_EQ(tk::testSeed(31), 31u);

  ::setenv("SOCFMEA_TEST_SEED", "123", 1);
  ASSERT_TRUE(tk::envSeed(&v));
  EXPECT_EQ(v, 123u);
  // Set: every call site gets its own derived stream, still deterministic.
  EXPECT_EQ(tk::testSeed(31), tk::derivedSeed(123, 31));
  EXPECT_NE(tk::testSeed(31), tk::testSeed(32));

  ::setenv("SOCFMEA_TEST_SEED", "0x10", 1);
  ASSERT_TRUE(tk::envSeed(&v));
  EXPECT_EQ(v, 16u);

  ::setenv("SOCFMEA_TEST_SEED", "12junk", 1);
  EXPECT_FALSE(tk::envSeed(&v));

  ::unsetenv("SOCFMEA_TEST_SEED");
  EXPECT_NE(tk::seedMessage(42).find("42"), std::string::npos);
}

// ---------------------------------------------------------------------------
// random netlist generator
// ---------------------------------------------------------------------------

TEST(TestkitGenerator, DesignsAreCheckCleanAcrossParameterSpace) {
  const std::uint64_t base = tk::testSeed(0xD351);
  for (std::uint64_t i = 0; i < 64; ++i) {
    SCOPED_TRACE(tk::seedMessage(tk::derivedSeed(base, i)));
    Rng rng(tk::derivedSeed(base, i));
    const auto opt = tk::randomOptions(rng);
    const auto nl = tk::generateNetlist(opt, rng);
    EXPECT_NO_THROW(nl.check());
    EXPECT_GE(nl.primaryInputs().size(), 1u);
    EXPECT_GE(nl.primaryOutputs().size(), 1u);
    // Sink ports: every net is read by a cell/memory or exported.
    std::vector<bool> read(nl.netCount(), false);
    for (nlx::CellId c = 0; c < nl.cellCount(); ++c) {
      for (nlx::NetId in : nl.cell(c).inputs) {
        if (in != nlx::kNoNet) read[in] = true;
      }
    }
    for (const auto& mem : nl.memories()) {
      for (nlx::NetId n : mem.addr) read[n] = true;
      for (nlx::NetId n : mem.wdata) read[n] = true;
      if (mem.writeEnable != nlx::kNoNet) read[mem.writeEnable] = true;
      if (mem.readEnable != nlx::kNoNet) read[mem.readEnable] = true;
    }
    for (nlx::NetId n = 0; n < nl.netCount(); ++n) {
      EXPECT_TRUE(read[n]) << "net " << nl.net(n).name << " is unobservable";
    }
  }
}

TEST(TestkitGenerator, SameSeedSameDesign) {
  const std::uint64_t seed = tk::testSeed(0xABCD);
  Rng a(seed), b(seed), c(seed + 1);
  const auto optA = tk::randomOptions(a);
  const auto optB = tk::randomOptions(b);
  const auto optC = tk::randomOptions(c);
  EXPECT_EQ(nlx::writeNetlistString(tk::generateNetlist(optA, a)),
            nlx::writeNetlistString(tk::generateNetlist(optB, b)));
  EXPECT_NE(nlx::writeNetlistString(tk::generateNetlist(optA, a)),
            nlx::writeNetlistString(tk::generateNetlist(optC, c)));
}

// ---------------------------------------------------------------------------
// plan format
// ---------------------------------------------------------------------------

TEST(TestkitPlan, RoundTripsThroughText) {
  const std::uint64_t base = tk::testSeed(0x9A17);
  for (std::uint64_t i = 0; i < 16; ++i) {
    SCOPED_TRACE(tk::seedMessage(tk::derivedSeed(base, i)));
    const FuzzCase c = makeCase(base, i);
    const std::string text = tk::writePlanString(c.nl, c.plan);
    const tk::TestPlan back = tk::readPlanString(text, c.nl);
    EXPECT_EQ(back.name, c.plan.name);
    EXPECT_EQ(back.stim.inputs, c.plan.stim.inputs);
    EXPECT_EQ(back.stim.values, c.plan.stim.values);
    EXPECT_EQ(back.faults, c.plan.faults);
  }
}

TEST(TestkitPlan, RebindsOntoReparsedDesign) {
  const FuzzCase c = makeCase(tk::testSeed(0x9A17), 1);
  const auto reparsed = nlx::readNetlistString(nlx::writeNetlistString(c.nl));
  const tk::TestPlan rebound = tk::rebindPlan(c.nl, reparsed, c.plan);
  EXPECT_EQ(tk::writePlanString(reparsed, rebound),
            tk::writePlanString(c.nl, c.plan));
}

TEST(TestkitPlan, RejectsMalformedInput) {
  // mem0 holds 8 words of 3 bits; ff is the one flip-flop, g a gate.
  const nlx::Netlist nl = nlx::readNetlistString(
      "design t\n"
      "input a\ninput a0\ninput a1\ninput a2\n"
      "memory mem0 addr=a0,a1,a2 wdata=a,a,a rdata=r0,r1,r2 we=a\n"
      "dff ff q a\n"
      "and g x a q\n"
      "output o x\noutput m r0\n");
  EXPECT_THROW(tk::readPlanString("stim 0\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("inputs nosuch\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("inputs a\nstim 01\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("inputs a\nstim 0x\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("fault nope net=a\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("fault sa0 net=missing\n", nl),
               tk::PlanError);
  EXPECT_THROW(tk::readPlanString("fault sa0 wat=1\n", nl), tk::PlanError);
  EXPECT_THROW(tk::readPlanString("bogus\n", nl), tk::PlanError);
  // Numbers: negative or only partly numeric.
  for (const char* bad : {"fault mem-soft mem=mem0 addr=-1 bit=0 cycle=1\n",
                          "fault mem-soft mem=mem0 addr=12junk bit=0\n",
                          "fault set net=a cycle=3x\n",
                          "fault mem-soft mem=mem0 addr=1 bit=4294967296\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(tk::readPlanString(bad, nl), tk::PlanError);
  }
  // Memory fields outside mem0, and faults without their site.
  for (const char* bad :
       {"fault mem-soft mem=mem0 addr=8 bit=0 cycle=1\n",
        "fault mem-soft mem=mem0 addr=1099511627776 bit=0 cycle=1\n",
        "fault mem-addr-wrong mem=mem0 addr=1 addr2=8\n",
        "fault mem-soft mem=mem0 addr=1 bit=3 cycle=1\n",
        "fault mem-stuck mem=mem0 addr=1 bit=40 value=1\n",
        "fault mem-soft addr=1 bit=0 cycle=1\n", "fault sa0\n",
        "fault bridge-and net=a\n", "fault seu cycle=1\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(tk::readPlanString(bad, nl), tk::PlanError);
  }
  // SEU, delay and multi-SEU cells must be flip-flops.
  for (const char* bad : {"fault seu net=x cell=g cycle=1\n",
                          "fault delay net=x cell=g\n",
                          "fault mseu cells=ff,g cycle=1\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(tk::readPlanString(bad, nl), tk::PlanError);
  }
  const auto edge = tk::readPlanString(
      "fault mem-soft mem=mem0 addr=7 bit=2 cycle=1\n"
      "fault mem-stuck mem=mem0 addr=0x7 bit=2 value=1\n"
      "fault seu net=q cell=ff cycle=1\nfault mseu cells=ff cycle=1\n",
      nl);
  EXPECT_EQ(edge.faults.size(), 4u);
  // Comments and blank lines are fine.
  const auto p =
      tk::readPlanString("# hi\n\ninputs a\nstim 1\nfault sa0 net=a\n", nl);
  EXPECT_EQ(p.cycles(), 1u);
  EXPECT_EQ(p.faults.size(), 1u);
}

// ---------------------------------------------------------------------------
// differential oracle
// ---------------------------------------------------------------------------

TEST(TestkitOracle, EnginesAgreeOnRandomCases) {
  const std::uint64_t base = tk::testSeed(0x0AC1E);
  for (std::uint64_t i = 0; i < 20; ++i) {
    SCOPED_TRACE(tk::seedMessage(tk::derivedSeed(base, i)));
    const FuzzCase c = makeCase(base, i);
    const auto report = tk::runOracle(c.nl, c.plan);
    EXPECT_TRUE(report.pass) << report.summary();
    // serial x both eval modes, plus bitsliced x both eval modes and the
    // campaign arm when the plan carries at least one fault.
    EXPECT_EQ(report.combosRun, c.plan.faults.empty() ? 2u : 5u);
  }
}

TEST(TestkitOracle, SabotagedEngineIsCaught) {
  const FuzzCase c = makeDetectingCase(tk::testSeed(0x5AB0));
  tk::OracleOptions opt;
  opt.sabotage.engine = tk::Sabotage::Engine::Bitsliced;
  opt.sabotage.mode = socfmea::sim::EvalMode::FullSettle;
  const auto report = tk::runOracle(c.nl, c.plan, opt);
  ASSERT_FALSE(report.pass) << report.summary();
  ASSERT_FALSE(report.mismatches.empty());
  EXPECT_EQ(report.mismatches[0].combo, "bitsliced/full-settle");
  EXPECT_FALSE(report.suspectFaults().empty());
  EXPECT_NE(report.summary().find("FAIL"), std::string::npos);
}

// ---------------------------------------------------------------------------
// shrinker + repro files (the minimal-repro acceptance path)
// ---------------------------------------------------------------------------

TEST(TestkitShrink, SabotageShrinksToMinimalReplayableRepro) {
  const FuzzCase c = makeDetectingCase(tk::testSeed(0x51AB));
  tk::ShrinkOptions sopt;
  sopt.oracle.sabotage.engine = tk::Sabotage::Engine::Bitsliced;
  sopt.oracle.sabotage.mode = socfmea::sim::EvalMode::FullSettle;

  const auto shrunk = tk::shrinkFailure(c.nl, c.plan, sopt);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_EQ(shrunk.faultsAfter, 1u);
  EXPECT_LE(shrunk.cyclesAfter, shrunk.cyclesBefore);
  EXPECT_LT(shrunk.cellsAfter, shrunk.cellsBefore);
  EXPECT_NO_THROW(shrunk.design.check());

  // The shrunk case still fails under the sabotaged engine...
  const auto failing = tk::runOracle(shrunk.design, shrunk.plan, sopt.oracle);
  EXPECT_FALSE(failing.pass);
  // ...and passes on the real engines.
  const auto clean = tk::runOracle(shrunk.design, shrunk.plan);
  EXPECT_TRUE(clean.pass) << clean.summary();

  // Round-trip through the on-disk repro pair.
  const std::string base = ::testing::TempDir() + "/testkit-repro";
  tk::writeRepro(base + ".nl", base + ".plan", shrunk.design, shrunk.plan);
  const auto repro = tk::loadRepro(base + ".nl", base + ".plan");
  const auto replayFail = tk::runOracle(repro.design, repro.plan, sopt.oracle);
  EXPECT_FALSE(replayFail.pass);
  const auto replayClean = tk::runOracle(repro.design, repro.plan);
  EXPECT_TRUE(replayClean.pass) << replayClean.summary();
}

TEST(TestkitShrink, PassingCaseIsReturnedUnchanged) {
  const FuzzCase c = makeCase(tk::testSeed(0x600D), 0);
  const auto r = tk::shrinkFailure(c.nl, c.plan, {});
  EXPECT_FALSE(r.reproduced);
  EXPECT_EQ(r.faultsAfter, c.plan.faults.size());
  EXPECT_EQ(r.cellsAfter, c.nl.cellCount());
}

// ---------------------------------------------------------------------------
// shrunk corpus regression anchors
// ---------------------------------------------------------------------------

class CorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusTest, ReplaysCleanThroughAllCombos) {
  const std::string base = std::string(SOCFMEA_CORPUS_DIR) + "/" + GetParam();
  const auto repro = tk::loadRepro(base + ".nl", base + ".plan");
  EXPECT_NO_THROW(repro.design.check());
  const auto report = tk::runOracle(repro.design, repro.plan);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.reference.size(), repro.plan.faults.size());
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusTest,
                         ::testing::Values("comb-xor-sa1", "dff-enable-delay",
                                           "mem-set-pulse"));

// Seeded mutations of every corpus pair, alternately in the .nl and in the
// .plan: byte flips, truncations, dropped and duplicated lines and extreme
// numbers.  A mutant either throws (a reader's error) or replays clean
// through every combo.
TEST(CorpusMutationTest, MutantsThrowOrReplayClean) {
  const auto readFile = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::uint64_t base = tk::testSeed(0xC0DE5);
  std::uint64_t k = 0;
  std::size_t replayed = 0;
  std::size_t thrown = 0;
  for (const char* pair : {"comb-xor-sa1", "dff-enable-delay", "mem-set-pulse",
                           "cpu-dwc-r0-seu", "cpu-cfcss-pc-seu"}) {
    const std::string path = std::string(SOCFMEA_CORPUS_DIR) + "/" + pair;
    const std::string nlText = readFile(path + ".nl");
    const std::string planText = readFile(path + ".plan");
    ASSERT_FALSE(nlText.empty() || planText.empty()) << path;
    for (int m = 0; m < 40; ++m, ++k) {
      const std::uint64_t seed = tk::derivedSeed(base, k);
      SCOPED_TRACE(std::string(pair) + ", " + tk::seedMessage(seed));
      const bool inDesign = m % 2 == 0;
      std::optional<tk::OracleReport> report;
      try {
        const nlx::Netlist nl = nlx::readNetlistString(
            inDesign ? tk::mutateText(nlText, seed) : nlText);
        report = tk::runOracle(
            nl, tk::readPlanString(
                    inDesign ? planText : tk::mutateText(planText, seed), nl));
      } catch (const std::exception&) {
        ++thrown;
        continue;
      }
      EXPECT_TRUE(report->pass) << report->summary();
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(thrown, 0u);
}
