// Workload for the gate-level CPU: holds reset, loads the program image into
// the behavioural ROM through the backdoor at cycle 0 (one flip per set bit
// over the all-zero array every machine starts from), then lets the core run
// the program.  The observable stream is the OUT port —
// the self-test signature the paper-style STL publishes.
#pragma once

#include "cpu/gatelevel.hpp"
#include "sim/workload.hpp"

namespace socfmea::cpu {

class CpuWorkload final : public sim::Workload {
 public:
  CpuWorkload(const CpuDesign& design, std::vector<std::uint8_t> program,
              std::uint64_t cycles = 600)
      : d_(&design), program_(padProgram(std::move(program))), cycles_(cycles) {}

  [[nodiscard]] std::uint64_t cycles() const override { return cycles_; }

  void drive(sim::Simulator& sim, std::uint64_t cycle) const override {
    sim.setInput(d_->rst, sim::fromBool(cycle < 2));
  }

  void backdoor(std::uint64_t cycle,
                std::vector<sim::MemFlip>& flips) const override {
    if (cycle != 0 || !d_->behaviouralRom()) return;
    for (std::uint64_t a = 0; a < program_.size(); ++a) {
      for (std::uint32_t b = 0; b < kWordBits; ++b) {
        if ((program_[a] >> b) & 1u) flips.push_back({0, a, b});
      }
    }
  }

 private:
  const CpuDesign* d_;
  std::vector<std::uint8_t> program_;
  std::uint64_t cycles_;
};

}  // namespace socfmea::cpu
