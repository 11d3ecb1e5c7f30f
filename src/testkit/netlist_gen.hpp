// Seeded random netlist generation for differential fuzzing.  Designs are
// built to be check()-clean by construction: combinational cells only read
// nets created before them (plus flip-flop Q and memory read-data nets, the
// sequential sources), so no combinational cycle or undriven net can occur.
// Every net and cell is named, which lets the shrinker and the plan format
// re-bind fault sites across rebuilds and text round-trips.
#pragma once

#include "netlist/netlist.hpp"
#include "sim/rng.hpp"

namespace socfmea::testkit {

/// Knobs of the generator.  randomOptions() draws a mix inside bounds that
/// keep a single oracle run cheap while still covering deep logic, wide
/// fanin, register feedback and behavioural memories.
struct GeneratorOptions {
  std::size_t inputs = 4;      ///< primary inputs (>= 1)
  std::size_t gates = 24;      ///< combinational cells (>= 1)
  std::size_t flipFlops = 4;   ///< D flip-flops (0 allowed)
  std::size_t memories = 0;    ///< behavioural memories (0 or 1)
  std::uint32_t memAddrBits = 3;
  std::uint32_t memDataBits = 4;
  std::size_t maxFanin = 4;    ///< max inputs of N-ary gates (>= 2)
  double constProb = 0.04;     ///< chance a gate is a constant driver
  double ffEnableProb = 0.35;  ///< chance a flip-flop has an enable net
  double ffResetProb = 0.35;   ///< chance a flip-flop has a reset net
  std::size_t outputs = 3;     ///< explicitly sampled output ports
};

/// Draws a random parameter mix: cell count, depth profile, FF/memory
/// density and fanout all vary run to run.
[[nodiscard]] GeneratorOptions randomOptions(sim::Rng& rng);

/// Generates a check()-clean design.  Names: inputs "in<i>", gate outputs
/// "w<i>", flip-flops "ff<i>" driving "q<i>", memory read data "mr<i>",
/// output ports "out<i>" / "sink<i>".
[[nodiscard]] netlist::Netlist generateNetlist(const GeneratorOptions& opt,
                                               sim::Rng& rng);

}  // namespace socfmea::testkit
