// Workload abstraction: the testbench stimulus driven onto the DUT, one
// cycle at a time.  In the paper "verification components available on the
// market can be easily reused as a workload to inject faults"; here a
// workload is any object that can drive the design's primary inputs per
// cycle.  A workload is a pure function of the cycle, fixed at
// construction, so golden and faulty runs see identical stimulus.  Its one
// caller is faultsim::recordStimulus: a flow records the workload once and
// every machine replays the recording.
#pragma once

#include <cstdint>
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

  /// Total cycles the workload runs.
  [[nodiscard]] virtual std::uint64_t cycles() const = 0;
  /// Sets this cycle's primary-input values on `sim`.  A pure function of
  /// the cycle: it only calls the setInput family and reads no machine
  /// state.
  virtual void drive(Simulator& sim, std::uint64_t cycle) const = 0;

  /// Testbench backdoor actions for this cycle (e.g. planting memory soft
  /// errors so the error-handling logic is exercised — how verification
  /// components reach toggle-coverage closure on ECC paths), appended to
  /// `flips` as memory bit flips applied after the inputs, before
  /// evalComb().  A pure function of the cycle: every machine starts with
  /// all-zero memories, so a workload that loads an image emits its set
  /// bits as flips.
  virtual void backdoor(std::uint64_t /*cycle*/,
                        std::vector<MemFlip>& /*flips*/) const {}
};

}  // namespace socfmea::sim
