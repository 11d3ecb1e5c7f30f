// Stable 64-bit structural hashing — the design component of the
// incremental flow's campaign keys.  The hash walks the netlist in id order (creation
// order, which every generator and the text parser produce deterministically)
// and mixes names, cell types and pin wiring, so two independently built
// copies of the same design collide exactly and any structural edit moves
// the hash.  No pointers, iteration over unordered containers or
// platform-dependent widths are involved, so the value is reproducible
// across platforms and runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace socfmea::netlist {

/// Order-sensitive accumulate: SplitMix64 finalizer over (state + value).
[[nodiscard]] constexpr std::uint64_t hashMix(std::uint64_t h,
                                              std::uint64_t v) noexcept {
  std::uint64_t z = h + 0x9E3779B97F4A7C15ull + v;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over the bytes (64-bit).
[[nodiscard]] std::uint64_t hashString(std::string_view s) noexcept;

/// Canonical structural hash of a checked or unchecked netlist: design name,
/// nets (names), cells (type, name, pin wiring, DFF init) and memories
/// (geometry + port wiring), all in id order.
[[nodiscard]] std::uint64_t hashNetlist(const Netlist& nl);

/// 16-digit lowercase hex rendering (artifact file names, reports).
[[nodiscard]] std::string hashHex(std::uint64_t h);

}  // namespace socfmea::netlist
