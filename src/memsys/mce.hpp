// MCE (paper, Section 6): "it interfaces the F-MEM with the memory
// controller and with the bus, providing the DMA access for [the] F-MEM
// scrubbing feature as also a distributed MPU functionality."  Implements
// the AhbSlave side of the multilayer bus: every granted transaction is
// checked against the page attributes/permissions before it reaches F-MEM;
// violations raise alarms and return AHB ERROR responses.
#pragma once

#include <unordered_map>

#include "memsys/ahb.hpp"
#include "memsys/fmem.hpp"

namespace socfmea::memsys {

class Mce final : public AhbSlave {
 public:
  Mce(FMem& fmem, Mpu& mpu, AhbMultilayer& bus)
      : fmem_(&fmem), mpu_(&mpu), bus_(&bus) {}

  /// AhbSlave: called by the bus arbiter with the granted transaction.
  /// Returns false to wait-state the master (write buffer full / read port
  /// busy).
  bool acceptTransaction(const AhbTransaction& txn) override;

  /// One cycle: runs F-MEM (granting the scrub DMA the idle slots) and
  /// routes read completions back onto the bus.
  void tick();

  [[nodiscard]] AlarmCounters alarms() const;
  void clearAlarms() {
    mceAlarms_ = AlarmCounters{};
    fmem_->clearAlarms();
  }

 private:
  FMem* fmem_;
  Mpu* mpu_;
  AhbMultilayer* bus_;
  AlarmCounters mceAlarms_;
  std::uint64_t nextTag_ = 1;
  bool busActiveThisCycle_ = false;
  std::unordered_map<std::uint64_t, AhbTransaction> outstanding_;
};

}  // namespace socfmea::memsys
