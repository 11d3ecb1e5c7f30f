// Workload abstraction: the testbench stimulus driven onto the DUT, one
// cycle at a time.  In the paper "verification components available on the
// market can be easily reused as a workload to inject faults"; here a
// workload is any object that can (re)drive the design's primary inputs per
// cycle.  Workloads must be deterministic given their construction seed so
// golden and faulty runs see identical stimulus.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace socfmea::sim {

/// One backdoor action: flip stored bit `bit` of word `addr` of memory
/// `mem` (MemoryModel::flipBit, past every fault model).
struct MemFlip {
  netlist::MemoryId mem = 0;
  std::uint64_t addr = 0;
  std::uint32_t bit = 0;

  [[nodiscard]] bool operator==(const MemFlip&) const = default;
};

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
  /// components reach toggle-coverage closure on ECC paths), appended to
  /// `flips` as memory bit flips applied after the inputs, before
  /// evalComb().  A pure function of the cycle: every machine starts with
  /// all-zero memories, so a workload that loads an image emits its set
  /// bits as flips.  Campaigns call it once per cycle while recording the
  /// stimulus (faultsim::recordStimulus); the engines replay the recorded
  /// flips and never call the workload.
  virtual void backdoor(std::uint64_t /*cycle*/,
                        std::vector<MemFlip>& /*flips*/) const {}
};

/// Applies `flips` to the memories of `sim`, in order.
void applyFlips(Simulator& sim, std::span<const MemFlip> flips);

/// One fault-free testbench cycle: drives `wl`'s inputs for `cycle` onto
/// `sim`, then applies the cycle's backdoor flips.  Call before evalComb().
void driveCycle(Simulator& sim, Workload& wl, std::uint64_t cycle);

}  // namespace socfmea::sim
