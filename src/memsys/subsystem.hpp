// The complete Figure-5 memory sub-system: multilayer AHB bus -> MCE
// (distributed MPU, DMA) -> F-MEM (write buffer, SEC-DED codec, pipelined
// decoder, scrubbing) -> memory controller -> protected array.
//
// Two architecture presets reproduce the paper's experiment:
//   MemSysConfig::v1() — SEC-DED + write buffer + decoder pipeline, no
//                        further protection (the ~95 % SFF implementation);
//   MemSysConfig::v2() — address-in-code, write-buffer parity, post-coder
//                        checker, redundant pipeline checker, distributed
//                        syndrome checking (the 99.38 % SFF implementation).
// Every v2 measure is individually toggleable for the ablation bench.
#pragma once

#include "memsys/mce.hpp"

namespace socfmea::memsys {

struct MemSysConfig {
  std::uint32_t addrBits = 8;     ///< 256 words of 32 data bits
  std::size_t masterCount = 2;    ///< AHB masters
  FMemConfig fmem;
  bool swStartupTests = false;    ///< v2: run the SW test library at boot

  [[nodiscard]] static MemSysConfig v1();
  [[nodiscard]] static MemSysConfig v2();
  [[nodiscard]] std::string describe() const;
};

class MemSubsystem {
 public:
  explicit MemSubsystem(const MemSysConfig& cfg);

  [[nodiscard]] const MemSysConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

  // ---- cycle-level interface -------------------------------------------------

  /// One clock for the whole sub-system (bus arbitration, MCE, F-MEM).
  void step();
  /// Runs `n` idle cycles (scrubbing proceeds in the background).
  void idle(std::uint64_t n);

  /// Posts a transaction on a master port (non-blocking).
  void post(const AhbTransaction& txn) { bus_.post(txn); }
  [[nodiscard]] std::optional<AhbResponse> collect(std::uint32_t master) {
    return bus_.collect(master);
  }

  // ---- blocking helpers (step internally until the response arrives) ---------

  /// Writes one word; returns false on an AHB ERROR (MPU violation).
  bool write(std::uint64_t addr, std::uint32_t data,
             Privilege priv = Privilege::Machine, std::uint32_t master = 0);
  /// Reads one word; std::nullopt on AHB ERROR (MPU violation or
  /// uncorrectable data).
  [[nodiscard]] std::optional<std::uint32_t> read(
      std::uint64_t addr, Privilege priv = Privilege::Machine,
      std::uint32_t master = 0);

  // ---- observation / fault hooks -----------------------------------------------

  [[nodiscard]] AlarmCounters alarms() const { return mce_.alarms(); }
  void clearAlarms() { mce_.clearAlarms(); }

  [[nodiscard]] CodeMemory& array() noexcept { return mem_; }
  [[nodiscard]] FMem& fmem() noexcept { return fmem_; }
  [[nodiscard]] Mpu& mpu() noexcept { return mpu_; }
  [[nodiscard]] AhbMultilayer& bus() noexcept { return bus_; }

  /// Injects a soft error into the stored code word (bit 0..38).
  void injectSoftError(std::uint64_t addr, std::uint32_t bit) {
    mem_.model().flipBit(addr, bit);
  }

 private:
  MemSysConfig cfg_;
  CodeMemory mem_;
  AhbMultilayer bus_;
  Mpu mpu_;
  FMem fmem_;
  Mce mce_;
  std::uint64_t cycle_ = 0;
  std::uint64_t nextTag_ = 1;
};

}  // namespace socfmea::memsys
