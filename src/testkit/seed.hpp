// Campaign-wide test seeding.  Every randomized test and fuzz campaign in
// the repo derives its PRNG streams from one seed so a CI failure reproduces
// locally from a single number: set SOCFMEA_TEST_SEED to replay.  Without
// the override each call site keeps its historical default, so the checked-in
// test vectors never move unless the user asks them to.
#pragma once

#include <cstdint>
#include <string>

namespace socfmea::testkit {

/// True when SOCFMEA_TEST_SEED is set; `*out` receives its value (decimal or
/// 0x-prefixed hex).  Malformed values are ignored (treated as unset).
[[nodiscard]] bool envSeed(std::uint64_t* out) noexcept;

/// Derives an independent seed stream: SplitMix64 finalizer over
/// (base, index), so distinct indexes never collide on nearby bases.
[[nodiscard]] std::uint64_t derivedSeed(std::uint64_t base,
                                        std::uint64_t index) noexcept;

/// The seed a call site should use: `fallback` (the historical literal) when
/// SOCFMEA_TEST_SEED is unset, else a stream derived from the override and
/// the fallback — each call site still gets an independent stream under one
/// campaign seed.
[[nodiscard]] std::uint64_t testSeed(std::uint64_t fallback) noexcept;

/// One-line reproduction banner for SCOPED_TRACE / failure logs, e.g.
/// "seed 123 (rerun with SOCFMEA_TEST_SEED=7 to reproduce)".
[[nodiscard]] std::string seedMessage(std::uint64_t seed);

/// One seeded mutation of a file's text, for robustness tests of the
/// readers: a flipped byte, a truncation, a dropped or a duplicated line,
/// or a number replaced by an extreme (2^64 - 1, 10^20 or -1).
[[nodiscard]] std::string mutateText(std::string text, std::uint64_t seed);

}  // namespace socfmea::testkit
