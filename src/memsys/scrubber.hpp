// Scrubbing engine (paper, Section 6): "the scrubbing function stores the
// locations where an error occurred, in order to repair them when the memory
// isn't used by the system, or it can also perform a background scanning of
// the memory for fault-forecasting."
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

namespace socfmea::memsys {

struct ScrubStats {
  std::uint64_t repairsIssued = 0;    ///< repair writes performed
  std::uint64_t scansIssued = 0;      ///< background scan reads performed
  std::uint64_t correctableSeen = 0;  ///< corrected errors found while scrubbing
};

/// What the scrubber wants to do with its DMA slot this cycle.
struct ScrubRequest {
  enum class Kind : std::uint8_t { Repair, Scan } kind = Kind::Scan;
  std::uint64_t addr = 0;
};

class Scrubber {
 public:
  Scrubber(std::uint64_t words, std::size_t storeCapacity, bool backgroundScan)
      : words_(words), capacity_(storeCapacity), scanEnabled_(backgroundScan) {}

  /// Logs an error location reported by the decoder (deduplicated; silently
  /// dropped when the store is full — the background scan will find it).
  void noteError(std::uint64_t addr);

  [[nodiscard]] std::size_t pendingRepairs() const noexcept {
    return store_.size();
  }

  /// Called when the memory is idle: returns the DMA operation to perform,
  /// if any.  Repairs take priority over background scanning.
  [[nodiscard]] std::optional<ScrubRequest> idleSlot();

  /// Reports the outcome of a previously issued slot (fault forecasting).
  void slotResult(const ScrubRequest& req, bool correctable);

  [[nodiscard]] const ScrubStats& stats() const noexcept { return stats_; }
  /// Corrected-error rate seen by scrubbing — the fault-forecasting signal.
  [[nodiscard]] double forecastRate() const noexcept;

 private:
  std::uint64_t words_;
  std::size_t capacity_;
  bool scanEnabled_;
  std::deque<std::uint64_t> store_;
  std::uint64_t scanPtr_ = 0;
  ScrubStats stats_;
};

}  // namespace socfmea::memsys
