// Lane-level machinery of the bit-sliced fault-parallel engine: the SIMD
// bit-word type (64 lanes per 64-bit limb, widened by adding limbs so the
// compiler can vectorize the bitwise kernels with AVX2 / NEON), run-time
// lane-width resolution, and the shared scheduler that deals faults out to
// word groups and refills retired lanes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "fault/fault_list.hpp"

namespace socfmea::faultsim {

/// A word of NB 64-bit limbs = NB*64 machine lanes.  Purely bitwise ops on
/// a flat limb array: with -mavx2 (or NEON) the loops below compile to
/// single vector instructions, and the portable build degrades to NB scalar
/// ops — same semantics, narrower datapath.
template <unsigned NB>
struct BitWord {
  static constexpr unsigned kLimbs = NB;
  static constexpr unsigned kLanes = NB * 64;

  std::array<std::uint64_t, NB> b;

  [[nodiscard]] static constexpr BitWord zero() noexcept {
    BitWord w{};
    return w;
  }
  [[nodiscard]] static constexpr BitWord ones() noexcept {
    BitWord w{};
    for (unsigned i = 0; i < NB; ++i) w.b[i] = ~std::uint64_t{0};
    return w;
  }
  [[nodiscard]] static constexpr BitWord broadcast(bool v) noexcept {
    return v ? ones() : zero();
  }

  [[nodiscard]] constexpr bool any() const noexcept {
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < NB; ++i) acc |= b[i];
    return acc != 0;
  }
  [[nodiscard]] constexpr bool none() const noexcept { return !any(); }
  [[nodiscard]] constexpr unsigned popcount() const noexcept {
    unsigned n = 0;
    for (unsigned i = 0; i < NB; ++i) {
      n += static_cast<unsigned>(__builtin_popcountll(b[i]));
    }
    return n;
  }

  [[nodiscard]] constexpr bool bit(unsigned lane) const noexcept {
    return ((b[lane / 64] >> (lane % 64)) & 1u) != 0;
  }
  constexpr void setBit(unsigned lane) noexcept {
    b[lane / 64] |= std::uint64_t{1} << (lane % 64);
  }
  constexpr void clearBit(unsigned lane) noexcept {
    b[lane / 64] &= ~(std::uint64_t{1} << (lane % 64));
  }
  [[nodiscard]] static constexpr BitWord laneMask(unsigned lane) noexcept {
    BitWord w{};
    w.setBit(lane);
    return w;
  }

  constexpr BitWord& operator&=(const BitWord& o) noexcept {
    for (unsigned i = 0; i < NB; ++i) b[i] &= o.b[i];
    return *this;
  }
  constexpr BitWord& operator|=(const BitWord& o) noexcept {
    for (unsigned i = 0; i < NB; ++i) b[i] |= o.b[i];
    return *this;
  }
  constexpr BitWord& operator^=(const BitWord& o) noexcept {
    for (unsigned i = 0; i < NB; ++i) b[i] ^= o.b[i];
    return *this;
  }
  [[nodiscard]] friend constexpr BitWord operator&(BitWord a,
                                                   const BitWord& c) noexcept {
    return a &= c;
  }
  [[nodiscard]] friend constexpr BitWord operator|(BitWord a,
                                                   const BitWord& c) noexcept {
    return a |= c;
  }
  [[nodiscard]] friend constexpr BitWord operator^(BitWord a,
                                                   const BitWord& c) noexcept {
    return a ^= c;
  }
  [[nodiscard]] friend constexpr BitWord operator~(BitWord a) noexcept {
    for (unsigned i = 0; i < NB; ++i) a.b[i] = ~a.b[i];
    return a;
  }
  [[nodiscard]] friend constexpr BitWord andnot(const BitWord& a,
                                                const BitWord& c) noexcept {
    BitWord w{};
    for (unsigned i = 0; i < NB; ++i) w.b[i] = a.b[i] & ~c.b[i];
    return w;
  }
  [[nodiscard]] constexpr bool operator==(const BitWord& o) const noexcept {
    for (unsigned i = 0; i < NB; ++i) {
      if (b[i] != o.b[i]) return false;
    }
    return true;
  }
};

/// Widest lane word the build can instantiate (4 limbs = 256 lanes, one
/// AVX2 register per net).
inline constexpr unsigned kMaxLaneWords = 4;

/// Resolves the lane width in 64-bit limbs: `requested` 1/2/4 is honoured
/// verbatim; 0 picks the widest word the compiled SIMD target covers with
/// one register (4 with AVX2, 2 with NEON, 1 portable).  Other values
/// round down to the nearest of {1, 2, 4}.
[[nodiscard]] unsigned resolveLaneWords(unsigned requested) noexcept;

/// Human-readable SIMD target the auto width maps to ("avx2", "neon",
/// "portable") — telemetry / bench reporting only.
[[nodiscard]] const char* simdTargetName() noexcept;

/// Deals fault indices out to word groups.  The queue is ordered permanents
/// first, then transients by ascending activation cycle (stable on the
/// original index).  Every group starts from reset, so the order serves
/// refill only: fresh groups take what a running group can no longer accept
/// (permanents, then the earliest transients), and later transients stay
/// queued for takeRefill.  Thread-safe: one scheduler is shared by all
/// workers.
class LaneScheduler {
 public:
  explicit LaneScheduler(const fault::FaultList& faults);

  /// Next batch of up to `maxLanes` fault indices for a fresh word group
  /// (empty when the queue is drained).
  [[nodiscard]] std::vector<std::size_t> takeGroup(std::size_t maxLanes);

  /// A pending transient whose activation cycle is >= `minCycle`, to refill
  /// a retired lane mid-run (permanents are active from reset and can never
  /// join a running group).  Skipped-over entries stay queued for the next
  /// takeGroup / takeRefill call.
  [[nodiscard]] std::optional<std::size_t> takeRefill(std::uint64_t minCycle);

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

 private:
  const fault::FaultList* faults_;
  std::vector<std::size_t> order_;  ///< queue, permanents-first
  std::vector<char> taken_;         ///< parallel to order_
  std::size_t head_ = 0;            ///< first possibly-untaken order_ index
  std::mutex mu_;
};

}  // namespace socfmea::faultsim
