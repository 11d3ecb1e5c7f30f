#include "sim/workload.hpp"

namespace socfmea::sim {

void applyFlips(Simulator& sim, std::span<const MemFlip> flips) {
  for (const MemFlip& f : flips) sim.memory(f.mem).flipBit(f.addr, f.bit);
}

void driveCycle(Simulator& sim, Workload& wl, std::uint64_t cycle) {
  wl.drive(sim, cycle);
  std::vector<MemFlip> flips;
  wl.backdoor(cycle, flips);
  applyFlips(sim, flips);
}

}  // namespace socfmea::sim
