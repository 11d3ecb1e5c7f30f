// Workload for the gate-level CPU: holds reset for two cycles, loads the
// program image into the behavioural ROM through the backdoor at cycle 0
// (one flip per set bit over the all-zero array every machine starts
// from), then lets the core run the program.  The observable stream is the
// OUT port — the self-test signature the paper-style STL publishes.
#pragma once

#include <algorithm>

#include "cpu/gatelevel.hpp"
#include "faultsim/stimulus.hpp"

namespace socfmea::cpu {

class CpuWorkload final : public faultsim::StimulusTrace {
 public:
  CpuWorkload(const CpuDesign& design, std::vector<std::uint8_t> program,
              std::uint64_t cycles = 600)
      : StimulusTrace(design.nl, cycles) {
    const std::size_t rst = column(design.rst);
    for (std::uint64_t c = 0; c < std::min<std::uint64_t>(2, cycles); ++c) {
      values[c][rst] = true;
    }
    if (cycles == 0 || !design.behaviouralRom()) return;
    const std::vector<std::uint8_t> image = padProgram(std::move(program));
    std::vector<sim::MemFlip>& load = flips.emplace_back();
    for (std::uint64_t a = 0; a < image.size(); ++a) {
      for (std::uint32_t b = 0; b < kWordBits; ++b) {
        if ((image[a] >> b) & 1u) load.push_back({0, a, b});
      }
    }
  }
};

}  // namespace socfmea::cpu
