// A test plan is the complete replayable campaign input for one design: a
// stimulus trace with explicit per-cycle values on every primary input
// (which the engines replay as is) plus a fault list over the fault::
// model.  Plans serialize to a line-oriented text format that
// names every fault site, so a plan file re-binds onto a reparsed .nl file,
// a shrunk rebuild of the design, or the design it was generated from.
//
// Format (one statement per line, '#' starts a comment):
//
//   plan <name>
//   inputs <netname> [<netname> ...]
//   stim <bits>                 one line per cycle, bits[i] drives inputs[i]
//   fault <kind> [net=<n>] [net2=<n>] [cell=<c>] [mem=<m>] [addr=<a>]
//         [addr2=<a>] [bit=<b>] [value=0|1] [cycle=<c>]
//
// <kind> uses fault::faultKindName mnemonics (sa0, sa1, seu, set,
// bridge-and, bridge-or, delay, mem-stuck, mem-soft, ...).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_list.hpp"
#include "faultsim/stimulus.hpp"
#include "netlist/netlist.hpp"
#include "sim/rng.hpp"

namespace socfmea::testkit {

struct TestPlan {
  std::string name = "plan";
  /// Primary input nets, in order, and their values per cycle; no flips.
  faultsim::StimulusTrace stim;
  fault::FaultList faults;  ///< ids bound to one netlist

  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return stim.cycles();
  }
};

/// Knobs of the random plan generator.  Non-applicable classes are skipped
/// silently (no flip-flops -> no SEU/delay faults; no memory -> no memory
/// faults), so any requested mix is valid for any design.
struct PlanOptions {
  std::uint64_t cycles = 32;
  std::size_t stuckAt = 5;
  std::size_t transients = 4;  ///< SEU flips + SET pulses
  std::size_t bridges = 2;
  std::size_t delays = 1;
  std::size_t memFaults = 2;   ///< stuck bits + soft errors
};

/// Draws a random mix (cycle budget, fault-class counts) for fuzzing.
[[nodiscard]] PlanOptions randomPlanOptions(sim::Rng& rng);

/// Generates uniform random stimulus over all primary inputs and a fault
/// plan sampled over the design's nets, flip-flops and memories.
[[nodiscard]] TestPlan generatePlan(const netlist::Netlist& nl,
                                    const PlanOptions& opt, sim::Rng& rng);

/// Error thrown by readPlan on malformed input or names absent from the
/// netlist the plan is being bound to.
class PlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes the plan with every net/cell/memory reference by name.
void writePlan(std::ostream& out, const netlist::Netlist& nl,
               const TestPlan& plan);
[[nodiscard]] std::string writePlanString(const netlist::Netlist& nl,
                                          const TestPlan& plan);

/// Parses a plan and binds all names to ids of `nl`.  Throws PlanError with
/// 1-based line info on syntax errors, unknown names, numbers that are
/// negative or only partly numeric, stimulus the engines cannot replay (an
/// input that is not a primary input, a stim line of the wrong width), and
/// faults the engines cannot run: a missing site, an SEU, delay or
/// multi-SEU cell that is not a flip-flop, or a memory address or bit
/// outside the memory.
[[nodiscard]] TestPlan readPlan(std::istream& in, const netlist::Netlist& nl);
[[nodiscard]] TestPlan readPlanString(const std::string& text,
                                      const netlist::Netlist& nl);

/// Re-binds a plan from the netlist it references onto another netlist with
/// the same names (a reparsed or rebuilt design).  Throws PlanError when a
/// referenced name does not exist in `to`.
[[nodiscard]] TestPlan rebindPlan(const netlist::Netlist& from,
                                  const netlist::Netlist& to,
                                  const TestPlan& plan);

}  // namespace socfmea::testkit
