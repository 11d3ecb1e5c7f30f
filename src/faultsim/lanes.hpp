// Lane-level machinery of the bit-sliced fault-parallel engine: the shared
// scheduler that deals faults out to word groups of 64 lanes (one bit of a
// 64-bit word per faulty machine) and refills retired lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "fault/fault_list.hpp"

namespace socfmea::faultsim {

/// Kept only for the benchmark harness's manifest, which reads both; they
/// go together with its `lane_words` and `simd_target` keys.  The engine's
/// word is one std::uint64_t (64 lanes) on every target, so
/// resolveLaneWords returns 1 for any request and simdTargetName
/// "portable".
[[nodiscard]] unsigned resolveLaneWords(unsigned requested) noexcept;
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
