#include "memsys/workloads.hpp"

#include "memsys/hamming.hpp"
#include "sim/rng.hpp"

namespace socfmea::memsys {

namespace {

constexpr std::uint64_t kResetCycles = 4;
/// BIST window: the engine sweeps a 16-address window, write pass + read
/// pass, four cycles per access, plus drain slack.
constexpr std::uint64_t kBistCycles = 16 * 4 * 2 + 16;
/// Latent-fault self-test window: strobe chk_test across a write and a
/// read so every checker comparator and alarm register is proven alive.
/// The window runs unconditionally (every variant has the chk_test input),
/// so the cycle schedule is identical across architectural variants and
/// the incremental flow can reuse cached verdicts between them (a
/// conditional window would shift every post-window access by 16 cycles
/// the moment a checker is added).
constexpr std::uint64_t kLatentCycles = 16;
/// One operation every kPacing cycles (covers the read latency and the
/// write-buffer drain of the paced design).
constexpr std::uint64_t kPacing = 4;

}  // namespace

ProtectionIpWorkload::ProtectionIpWorkload(const GateLevelDesign& design,
                                           Options opt)
    : StimulusTrace(design.nl, opt.cycles) {
  const std::size_t rst = column(design.rst);
  const std::size_t bist = column(design.bistEn);
  const std::size_t chk = column(design.chkTest);
  const std::size_t req = column(design.req);
  const std::size_t we = column(design.we);
  const std::size_t priv = column(design.priv);
  const auto busColumns = [&](const netlist::Bus& bus) {
    std::vector<std::size_t> cols;
    for (const netlist::NetId n : bus) cols.push_back(column(n));
    return cols;
  };
  const std::vector<std::size_t> addr = busColumns(design.addr);
  const std::vector<std::size_t> wdata = busColumns(design.wdata);
  const auto setBus = [](std::vector<bool>& row,
                         const std::vector<std::size_t>& cols,
                         std::uint64_t value) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      row[cols[i]] = ((value >> i) & 1u) != 0;
    }
  };
  flips.resize(opt.cycles);  // planted errors land in the one memory, 0

  sim::Rng rng(opt.seed);
  const std::uint64_t words = std::uint64_t{1} << design.options.addrBits;
  std::vector<std::uint64_t> written;
  std::uint32_t nextFlipBit = 0;   // rotate over all 39 code-bit positions
  std::uint32_t nextSyndrome = 1;  // rotate over all 6-bit syndrome values

  for (std::uint64_t c = 0; c < opt.cycles; ++c) {
    std::vector<bool>& row = values[c];
    row[priv] = true;  // machine privilege unless an MPU probe drops it
    if (c < kResetCycles) {
      row[rst] = true;
      continue;
    }
    const std::uint64_t t = c - kResetCycles;
    if (t < kBistCycles) {
      row[bist] = true;
      continue;
    }
    if (t < kBistCycles + kLatentCycles) {
      // Self-test window: strobe, with one write and one read in flight.
      row[chk] = true;
      const std::uint64_t lt = t - kBistCycles;
      if (lt == 1) {
        row[req] = true;
        row[we] = true;
        setBus(row, addr, 1);
        setBus(row, wdata, 0x5A5A5A5Au);
      } else if (lt == 6) {
        row[req] = true;
        setBus(row, addr, 1);
      }
      continue;
    }
    if ((t - kBistCycles) % kPacing != 0) continue;  // idle slot

    const std::uint64_t roll = rng.below(100);
    if (roll < 45 || written.empty()) {
      // Write to the unrestricted lower three pages.
      const std::uint64_t a =
          rng.below(std::max<std::uint64_t>(1, words * 3 / 4));
      row[req] = true;
      row[we] = true;
      setBus(row, addr, a);
      setBus(row, wdata, static_cast<std::uint32_t>(rng.next()));
      if (written.size() < 256) written.push_back(a);
    } else if (roll < 90) {
      // Read back a previously written address; often plant an ECC error
      // there first so the correction/classification logic is exercised.
      const std::uint64_t a = written[rng.below(written.size())];
      row[req] = true;
      setBus(row, addr, a);
      if (opt.plantEccErrors && rng.chance(0.70)) {
        std::uint64_t flipMask = 0;  // memory code bits to flip (of 39)
        const std::uint64_t kind = rng.below(10);
        if (kind < 6) {
          // Single-bit plant, rotating over every code position.
          flipMask = std::uint64_t{1} << (nextFlipBit % kCodeBits);
          ++nextFlipBit;
        } else if (kind < 8) {
          // Double-bit plant with varied separation.
          const std::uint32_t b0 = nextFlipBit % kCodeBits;
          const std::uint32_t sep = 1 + nextFlipBit % 17;
          flipMask = (std::uint64_t{1} << b0) |
                     (std::uint64_t{1} << ((b0 + sep) % kCodeBits));
          ++nextFlipBit;
        } else {
          // Syndrome sweep: flip exactly the check bits of a rotating 6-bit
          // pattern so the correction decoders see every syndrome value.
          for (std::uint32_t k = 0; k < kCheckBits; ++k) {
            if (nextSyndrome & (1u << k)) {
              flipMask |= std::uint64_t{1} << HammingCodec::checkBitIndex(k);
            }
          }
          nextSyndrome = (nextSyndrome % 63) + 1;
        }
        for (std::uint32_t bit = 0; bit < kCodeBits; ++bit) {
          if (flipMask & (std::uint64_t{1} << bit)) {
            flips[c].push_back({0, a, bit});
          }
        }
      }
    } else if (roll < 95) {
      // MPU probe: user-privilege access to the protected top page.
      row[req] = true;
      row[we] = rng.coin();
      row[priv] = false;
      setBus(row, addr,
             words - 1 - rng.below(std::max<std::uint64_t>(1, words / 8)));
      setBus(row, wdata, static_cast<std::uint32_t>(rng.next()));
    }
    // Remaining rolls: idle (write buffer drains, scrub-style quiet).
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
