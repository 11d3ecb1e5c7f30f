// Differential oracle: runs one (design, plan) pair through every fault-sim
// engine x evaluation-mode combination and asserts bit-identical verdicts.
//
//   serial    x {event-driven, full-settle}   the reference engine
//   threaded  x {event-driven, full-settle}   checkpoint-forking worker pool
//   bitsliced x {event-driven, full-settle}   SIMD word-lane divergence engine
//
// The serial/event-driven run is the reference; every other combo must match
// it fault-for-fault on outcomes and on the detected tally.  The bit-sliced
// engine covers the FULL fault model (stuck-at, transients, bridges, delay,
// memory faults), so it runs the whole plan fault list like the other
// engines.  Two extra properties ride along: the golden traces of both eval
// modes must be identical, and the design must survive a text round-trip —
// parse(write(nl)) re-simulated under the rebound plan must reproduce the
// reference verdicts.
#pragma once

#include <string>
#include <vector>

#include "faultsim/serial.hpp"
#include "netlist/netlist.hpp"
#include "testkit/plan.hpp"

namespace socfmea::testkit {

[[nodiscard]] std::string_view evalModeName(sim::EvalMode m) noexcept;

/// A deliberate, deterministic engine bug for validating the shrinker and
/// the repro pipeline: after the selected engine/mode combo runs, every
/// `stride`-th Detected verdict (starting at `offset`) is downgraded to
/// Undetected — the classic "engine silently misses detections" failure.
/// Because only real detections flip, a failing case needs a live cone from
/// a fault site to an observed output, so the shrinker must preserve one.
struct Sabotage {
  enum class Engine : std::uint8_t { None, Serial, Threaded, Bitsliced };
  Engine engine = Engine::None;
  sim::EvalMode mode = sim::EvalMode::FullSettle;
  std::uint64_t stride = 1;  ///< downgrade every stride-th detection
  std::uint64_t offset = 0;

  [[nodiscard]] bool active() const noexcept { return engine != Engine::None; }
};

struct OracleOptions {
  /// Worker count for the threaded engine (0 = hardware concurrency).
  unsigned threads = 0;
  /// Run the bit-sliced fault-parallel engine on the full plan fault list.
  bool runBitsliced = true;
  /// Check parse(write(nl)) by re-running the reference engine on the
  /// reparsed design with the plan rebound by name.
  bool roundTrip = true;
  Sabotage sabotage;
};

/// One disagreement between a combo and the reference.
struct OracleMismatch {
  std::string combo;   ///< e.g. "threaded/full-settle", "round-trip"
  std::string detail;  ///< human-readable description
  /// Indices into the plan's fault list whose verdicts disagreed (empty for
  /// non-verdict mismatches such as golden-trace or text differences).
  std::vector<std::size_t> faultIndices;
};

struct OracleReport {
  bool pass = false;
  std::size_t combosRun = 0;  ///< engine/mode combos executed (up to 6)
  faultsim::FaultSimResult reference;  ///< serial / event-driven
  std::vector<OracleMismatch> mismatches;

  /// Union of OracleMismatch::faultIndices — the shrinker's starting set.
  [[nodiscard]] std::vector<std::size_t> suspectFaults() const;
  [[nodiscard]] std::string summary() const;
};

/// Runs all combos and properties.  Throws only on malformed inputs (e.g. a
/// plan whose input list does not match the design); engine disagreements
/// are reported, not thrown.
[[nodiscard]] OracleReport runOracle(const netlist::Netlist& nl,
                                     const TestPlan& plan,
                                     const OracleOptions& opt = {});

}  // namespace socfmea::testkit
