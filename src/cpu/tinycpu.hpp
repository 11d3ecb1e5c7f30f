// Instruction-set simulator (golden reference) for the tiny CPU.  The
// gate-level core is verified against this ISS cycle by cycle (co-simulation
// property test) — the "functional verification" leg the paper's injector
// reuses as a workload.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/isa.hpp"

namespace socfmea::cpu {

class TinyCpu {
 public:
  explicit TinyCpu(std::vector<std::uint8_t> program)
      : program_(padProgram(std::move(program))) {}

  void reset();

  /// One instruction (= two hardware cycles: FETCH + EXEC).
  void stepInstruction();

  [[nodiscard]] std::uint8_t pc() const noexcept { return pc_; }
  [[nodiscard]] std::uint8_t acc() const noexcept { return acc_; }
  [[nodiscard]] std::uint8_t reg(std::size_t i) const { return regs_.at(i); }
  [[nodiscard]] bool zflag() const noexcept { return z_; }
  [[nodiscard]] std::uint8_t out() const noexcept { return out_; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }
  /// True once a TRAP instruction retired — the software mitigations' safe
  /// halt (mirrors the gate-level alarm_trap output).
  [[nodiscard]] bool trapped() const noexcept { return trapped_; }
  /// Instructions retired since reset (sizes the gate-level cycle budget).
  [[nodiscard]] std::size_t instructionsRetired() const noexcept {
    return retired_;
  }

  /// Fault drills (the QEMU/GDB-style injection into a running program):
  /// flip one architectural bit between instructions.  The transformer
  /// property tests use these to show TMR masks / DWC detects a register
  /// SEU and that CFCSS catches wild control-flow edges.
  void flipReg(std::size_t reg, unsigned bit) {
    regs_.at(reg) ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  void flipPc(unsigned bit) {
    pc_ ^= static_cast<std::uint8_t>(1u << (bit % kProgAddrBits));
  }

  /// Runs until HALT or the instruction budget is exhausted; returns the
  /// sequence of OUT values (the observable signature stream).
  std::vector<std::uint8_t> run(std::size_t maxInstructions = 4096);
  [[nodiscard]] const std::vector<std::uint8_t>& outs() const noexcept {
    return outs_;
  }

 private:
  std::vector<std::uint8_t> program_;
  std::uint8_t pc_ = 0;
  std::uint8_t acc_ = 0;
  std::array<std::uint8_t, kRegCount> regs_{};
  bool z_ = false;
  std::uint8_t out_ = 0;
  bool halted_ = false;
  bool trapped_ = false;
  std::size_t retired_ = 0;
  std::vector<std::uint8_t> outs_;
};

}  // namespace socfmea::cpu
