#include "memsys/workloads.hpp"

#include "memsys/hamming.hpp"

namespace socfmea::memsys {

namespace {

constexpr std::uint64_t kResetCycles = 4;
/// BIST window: the engine sweeps a 16-address window, write pass + read
/// pass, four cycles per access, plus drain slack.
constexpr std::uint64_t kBistCycles = 16 * 4 * 2 + 16;
/// Latent-fault self-test window: strobe chk_test across a write and a
/// read so every checker comparator and alarm register is proven alive.
/// The window runs unconditionally — on designs without a chk_test input
/// drive() simply skips the strobe — so the cycle schedule is identical
/// across architectural variants and the incremental flow can reuse
/// cached verdicts between them (a conditional window would shift every
/// post-window access by 16 cycles the moment a checker is added).
constexpr std::uint64_t kLatentCycles = 16;
/// One operation every kPacing cycles (covers the read latency and the
/// write-buffer drain of the paced design).
constexpr std::uint64_t kPacing = 4;

}  // namespace

ProtectionIpWorkload::ProtectionIpWorkload(const GateLevelDesign& design,
                                           Options opt)
    : d_(&design), opt_(opt) {
  buildPlan();
}

void ProtectionIpWorkload::buildPlan() {
  sim::Rng rng(opt_.seed);
  const std::uint64_t words = std::uint64_t{1} << d_->options.addrBits;
  plan_.assign(opt_.cycles, CyclePlan{});

  std::vector<std::uint64_t> written;
  std::uint32_t nextFlipBit = 0;   // rotate over all 39 code-bit positions
  std::uint32_t nextSyndrome = 1;  // rotate over all 6-bit syndrome values

  for (std::uint64_t c = 0; c < opt_.cycles; ++c) {
    CyclePlan& p = plan_[c];
    if (c < kResetCycles) {
      p.rst = true;
      continue;
    }
    const std::uint64_t t = c - kResetCycles;
    if (t < kBistCycles) {
      p.bist = true;
      continue;
    }
    if (t < kBistCycles + kLatentCycles) {
      // Self-test window: strobe, with one write and one read in flight.
      p.chk = true;
      const std::uint64_t lt = t - kBistCycles;
      if (lt == 1) {
        p.req = true;
        p.we = true;
        p.addr = 1;
        p.data = 0x5A5A5A5Au;
      } else if (lt == 6) {
        p.req = true;
        p.addr = 1;
      }
      continue;
    }
    if ((t - kBistCycles) % kPacing != 0) continue;  // idle slot

    const std::uint64_t roll = rng.below(100);
    if (roll < 45 || written.empty()) {
      // Write to the unrestricted lower three pages.
      p.req = true;
      p.we = true;
      p.addr = rng.below(std::max<std::uint64_t>(1, words * 3 / 4));
      p.data = static_cast<std::uint32_t>(rng.next());
      if (written.size() < 256) written.push_back(p.addr);
    } else if (roll < 90) {
      // Read back a previously written address; often plant an ECC error
      // there first so the correction/classification logic is exercised.
      p.req = true;
      p.addr = written[rng.below(written.size())];
      if (opt_.plantEccErrors && rng.chance(0.70)) {
        p.flipAddr = p.addr;
        const std::uint64_t kind = rng.below(10);
        if (kind < 6) {
          // Single-bit plant, rotating over every code position.
          p.flipMask = std::uint64_t{1} << (nextFlipBit % kCodeBits);
          ++nextFlipBit;
        } else if (kind < 8) {
          // Double-bit plant with varied separation.
          const std::uint32_t b0 = nextFlipBit % kCodeBits;
          const std::uint32_t sep = 1 + nextFlipBit % 17;
          p.flipMask = (std::uint64_t{1} << b0) |
                       (std::uint64_t{1} << ((b0 + sep) % kCodeBits));
          ++nextFlipBit;
        } else {
          // Syndrome sweep: flip exactly the check bits of a rotating 6-bit
          // pattern so the correction decoders see every syndrome value.
          for (std::uint32_t c = 0; c < kCheckBits; ++c) {
            if (nextSyndrome & (1u << c)) {
              p.flipMask |= std::uint64_t{1} << HammingCodec::checkBitIndex(c);
            }
          }
          nextSyndrome = (nextSyndrome % 63) + 1;
        }
      }
    } else if (roll < 95) {
      // MPU probe: user-privilege access to the protected top page.
      p.req = true;
      p.we = rng.coin();
      p.priv = false;
      p.addr = words - 1 - rng.below(std::max<std::uint64_t>(1, words / 8));
      p.data = static_cast<std::uint32_t>(rng.next());
    }
    // Remaining rolls: idle (write buffer drains, scrub-style quiet).
  }
}

void ProtectionIpWorkload::drive(sim::Simulator& sim,
                                 std::uint64_t cycle) const {
  const CyclePlan& p = plan_.at(cycle);
  sim.setInput(d_->rst, sim::fromBool(p.rst));
  sim.setInput(d_->bistEn, sim::fromBool(p.bist));
  const auto& chkNet = sim.design().net(d_->chkTest);
  if (chkNet.driver != netlist::kNoCell &&
      sim.design().cell(chkNet.driver).type == netlist::CellType::Input) {
    sim.setInput(d_->chkTest, sim::fromBool(p.chk));
  }
  sim.setInput(d_->req, sim::fromBool(p.req));
  sim.setInput(d_->we, sim::fromBool(p.we));
  sim.setInput(d_->priv, sim::fromBool(p.priv));
  sim.setInputBus(d_->addr, p.addr);
  sim.setInputBus(d_->wdata, p.data);
}

void ProtectionIpWorkload::backdoor(std::uint64_t cycle,
                                    std::vector<sim::MemFlip>& flips) const {
  if (cycle >= plan_.size() || d_->nl.memoryCount() == 0) return;
  const CyclePlan& p = plan_[cycle];
  for (std::uint32_t bit = 0; bit < kCodeBits; ++bit) {
    if (p.flipMask & (std::uint64_t{1} << bit)) {
      flips.push_back({0, p.flipAddr, bit});
    }
  }
}

TrafficStats runBehavioralTraffic(MemSubsystem& sys, std::uint64_t operations,
                                  std::uint64_t seed) {
  sim::Rng rng(seed);
  TrafficStats stats;
  const std::uint64_t words = sys.array().words();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> shadow;

  const std::uint64_t startCycle = sys.cycle();
  for (std::uint64_t op = 0; op < operations; ++op) {
    const std::uint32_t master =
        static_cast<std::uint32_t>(rng.below(sys.config().masterCount));
    const std::uint64_t roll = rng.below(100);
    if (roll < 50 || shadow.empty()) {
      const std::uint64_t addr = rng.below(words * 3 / 4);
      const std::uint32_t data = static_cast<std::uint32_t>(rng.next());
      if (sys.write(addr, data, Privilege::Machine, master)) {
        ++stats.writes;
        shadow.emplace_back(addr, data);
        if (shadow.size() > 512) shadow.erase(shadow.begin());
      }
    } else if (roll < 90) {
      // Read back the *latest* shadow value for a written address.
      const auto [addr, expected] = shadow[rng.below(shadow.size())];
      std::uint32_t latest = expected;
      for (const auto& [a, v] : shadow) {
        if (a == addr) latest = v;
      }
      const auto got = sys.read(addr, Privilege::Machine, master);
      ++stats.reads;
      if (!got.has_value() || *got != latest) ++stats.readMismatches;
    } else if (roll < 95) {
      // Denied accesses: user touch of a privileged page.
      const std::uint64_t addr = words - 1 - rng.below(words / 8);
      if (!sys.read(addr, Privilege::User, master).has_value()) {
        ++stats.mpuDenials;
      }
    } else {
      sys.idle(rng.range(1, 8));  // scrubbing window
    }
  }
  stats.cycles = sys.cycle() - startCycle;
  return stats;
}

}  // namespace socfmea::memsys
