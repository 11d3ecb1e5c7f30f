// Workload abstraction: the testbench stimulus driven onto the DUT, one
// cycle at a time.  In the paper "verification components available on the
// market can be easily reused as a workload to inject faults"; here a
// workload is any object that can (re)drive the design's primary inputs per
// cycle.  Workloads must be deterministic given their construction seed so
// golden and faulty runs see identical stimulus.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"

namespace socfmea::sim {

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Total cycles the workload runs.
  [[nodiscard]] virtual std::uint64_t cycles() const = 0;
  /// Re-arms internal state; called before every (re)run.
  virtual void restart() {}
  /// Applies this cycle's input values.  Called before evalComb().
  virtual void drive(Simulator& sim, std::uint64_t cycle) = 0;

  /// Testbench backdoor actions for this cycle (e.g. planting memory soft
  /// errors so the error-handling logic is exercised — how verification
  /// components reach toggle-coverage closure on ECC paths).  MUST be a
  /// deterministic function of (restart state, cycle): it is re-executed on
  /// both the golden and every faulty machine.  Called after drive(),
  /// before evalComb().
  ///
  /// Concurrency contract: the parallel campaign engines call backdoor()
  /// from several worker threads at once (after one restart() on the main
  /// thread), each with its own Simulator.  backdoor() must therefore not
  /// mutate workload state — read a plan precomputed in restart(), or
  /// derive everything from `cycle` (the in-tree workloads do exactly
  /// this; drive() has no such requirement because stimulus is recorded
  /// once and replayed).
  virtual void backdoor(Simulator& /*sim*/, std::uint64_t /*cycle*/) {}
};

}  // namespace socfmea::sim
