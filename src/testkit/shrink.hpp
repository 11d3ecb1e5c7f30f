// Greedy delta-debugging shrinker.  Given a (design, plan) pair on which the
// differential oracle fails, it searches for a smaller pair that still fails
// and writes the result as a loadable .nl + .plan repro.  Passes, in order:
//
//   1. fault list minimization (ddmin-style chunk removal down to singles)
//   2. cycle truncation (shortest failing stimulus prefix)
//   3. stimulus simplification (zero whole input columns, then whole cycles)
//   4. structural reduction, repeated for a few rounds:
//        - output-port pruning
//        - dead-cell sweep (cells whose output no cell, memory or port reads)
//        - cell bypass: delete a cell and promote its output net to a new
//          primary input driven 0 — cuts whole cones while keeping the
//          design check()-clean
//
// Every candidate is validated by rebuilding the netlist and re-running the
// oracle; candidates that fail check() or orphan a fault site are rejected,
// so the result is always a well-formed, replayable failing case.
#pragma once

#include <string>

#include "testkit/oracle.hpp"

namespace socfmea::testkit {

struct ShrinkOptions {
  OracleOptions oracle;  ///< must reproduce the failure being shrunk
};

struct ShrinkResult {
  netlist::Netlist design;
  TestPlan plan;      ///< bound to `design`
  bool reproduced = false;  ///< initial failure reproduced before shrinking
  std::size_t oracleCalls = 0;
  /// Size deltas, original -> shrunk.
  std::size_t faultsBefore = 0, faultsAfter = 0;
  std::size_t cyclesBefore = 0, cyclesAfter = 0;
  std::size_t cellsBefore = 0, cellsAfter = 0;
};

/// Shrinks a failing case.  If the oracle passes on the input (nothing to
/// shrink), returns it unchanged with reproduced = false.
[[nodiscard]] ShrinkResult shrinkFailure(const netlist::Netlist& nl,
                                         const TestPlan& plan,
                                         const ShrinkOptions& opt = {});

/// Writes design + plan as a repro pair (.nl text format, .plan format).
void writeRepro(const std::string& nlPath, const std::string& planPath,
                const netlist::Netlist& nl, const TestPlan& plan);

struct ReproCase {
  netlist::Netlist design;
  TestPlan plan;
};

/// Loads a repro pair written by writeRepro; the plan is bound to the
/// parsed design.  Throws on unreadable files or malformed content.
[[nodiscard]] ReproCase loadRepro(const std::string& nlPath,
                                  const std::string& planPath);

}  // namespace socfmea::testkit
