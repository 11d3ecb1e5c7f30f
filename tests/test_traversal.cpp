// Property tests for the consolidated forward-cone walker
// (netlist/traversal): the incremental flow's affected cone and the compiled
// forwardReach share ONE walkForward implementation, so the tests here
// cross-check that shared walker against the independent Netlist-form
// traversal on random designs — identical reach sets and the
// union-distributivity of extendForwardReach.
#include <gtest/gtest.h>

#include <set>

#include "netlist/compiled.hpp"
#include "netlist/traversal.hpp"
#include "sim/rng.hpp"
#include "testkit/netlist_gen.hpp"

namespace nl = socfmea::netlist;
namespace tk = socfmea::testkit;
namespace sm = socfmea::sim;

namespace {

std::set<nl::CellId> reachedCells(const nl::ForwardReach& r) {
  std::set<nl::CellId> out;
  for (nl::CellId c = 0; c < r.cell.size(); ++c) {
    if (r.cell[c] != 0) out.insert(c);
  }
  return out;
}

std::set<nl::CellId> asSet(const std::vector<nl::CellId>& v) {
  return {v.begin(), v.end()};
}

/// A few seed nets spread over the design: every third gate output plus the
/// first primary input.
std::vector<nl::NetId> sampleSeeds(const nl::Netlist& n) {
  std::vector<nl::NetId> seeds;
  std::size_t combSeen = 0;
  for (nl::CellId c = 0; c < n.cellCount(); ++c) {
    const nl::Cell& cell = n.cell(c);
    if (nl::isCombinational(cell.type) && cell.output != nl::kNoNet) {
      if (combSeen++ % 3 == 0) seeds.push_back(cell.output);
    }
    if (cell.type == nl::CellType::Input && seeds.empty()) {
      seeds.push_back(cell.output);
    }
  }
  return seeds;
}

}  // namespace

// The flag-form closure (the shared walker, registers + memories crossed)
// must mark exactly the cells the independent Netlist-form walk returns.
TEST(TraversalPropertyTest, FlagClosureMatchesNetlistWalkOnRandomDesigns) {
  sm::Rng rng(0xC0DE5EED);
  for (int iter = 0; iter < 25; ++iter) {
    tk::GeneratorOptions gopt = tk::randomOptions(rng);
    const nl::Netlist n = tk::generateNetlist(gopt, rng);
    const nl::CompiledDesignPtr cd = nl::compile(n);
    const std::vector<nl::NetId> seeds = sampleSeeds(n);
    if (seeds.empty()) continue;

    const nl::ForwardReach flags = nl::forwardReach(*cd, seeds);
    const std::set<nl::CellId> viaFlags = reachedCells(flags);
    const std::set<nl::CellId> viaNetlist =
        asSet(nl::forwardReach(n, seeds, /*throughRegisters=*/true,
                               /*throughMemories=*/true));
    const std::set<nl::CellId> viaCsrList =
        asSet(nl::forwardReach(*cd, seeds, /*throughRegisters=*/true,
                               /*throughMemories=*/true));
    EXPECT_EQ(viaFlags, viaNetlist) << "design " << iter;
    EXPECT_EQ(viaFlags, viaCsrList) << "design " << iter;
  }
}

// Reachability is union-distributive: extending a closure one seed at a time
// must land on the same set as one closure over every seed.
TEST(TraversalPropertyTest, ExtendSeedBySeedEqualsOneShot) {
  sm::Rng rng(0xAB5EED);
  for (int iter = 0; iter < 10; ++iter) {
    tk::GeneratorOptions gopt = tk::randomOptions(rng);
    const nl::Netlist n = tk::generateNetlist(gopt, rng);
    const nl::CompiledDesignPtr cd = nl::compile(n);
    const std::vector<nl::NetId> seeds = sampleSeeds(n);
    if (seeds.size() < 2) continue;

    const nl::ForwardReach oneShot = nl::forwardReach(*cd, seeds);
    nl::ForwardReach stepped = nl::forwardReach(*cd, {seeds.front()});
    for (std::size_t i = 1; i < seeds.size(); ++i) {
      nl::extendForwardReach(*cd, stepped, {seeds[i]});
    }
    EXPECT_EQ(oneShot.net, stepped.net);
    EXPECT_EQ(oneShot.cell, stepped.cell);
    EXPECT_EQ(oneShot.mem, stepped.mem);
  }
}

