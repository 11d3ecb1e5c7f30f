// Process-wide campaign telemetry: named counters, gauges and accumulated
// wall/CPU timers, collected by the hot layers (injection manager, faultsim
// engines, simulator aggregates) and exported as JSON next to the safety
// metrics.  Telemetry answers "where did the cycles go" (scope timers,
// engine counters such as lane occupancy and washout drops, worker counts);
// it is deliberately kept out of the metric sections that CI diffs against
// the golden report, because timings are machine-dependent.
//
// Concurrency model: every mutator and reader locks the registry, so worker
// threads record into one shared Registry directly.  A hot loop keeps its
// own counters and records them once per run rather than locking per event.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace socfmea::obs {

/// Accumulated time of one named scope (sums over all entries).
struct TimerStat {
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;  ///< process CPU time — > wall when parallel
  std::uint64_t count = 0;  ///< times the scope was entered
};

class Registry {
 public:
  /// The process-wide registry most call sites record into.
  [[nodiscard]] static Registry& global();

  /// Monotonic counter increment.
  void add(std::string_view counter, std::uint64_t delta = 1);
  /// Last-write-wins gauge.
  void set(std::string_view gauge, double value);
  /// Accumulates one timed interval under `timer`.
  void record(std::string_view timer, double wallSeconds, double cpuSeconds);

  void clear();

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] TimerStat timer(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "timers": {name: {wall_s, cpu_s,
  /// count}}} — keys sorted, so dumps are deterministic.
  [[nodiscard]] Json toJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, TimerStat, std::less<>> timers_;
};

/// RAII scope timer: records one wall/CPU interval into a registry when the
/// scope exits (or at an explicit stop()).  Nested scopes are independent —
/// an outer timer includes its inner timers' time, same-name nesting simply
/// accumulates count and sums.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name, Registry& reg = Registry::global());
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at destruction; further stops are no-ops.
  void stop();
  [[nodiscard]] double elapsedWallSeconds() const;

 private:
  Registry* reg_;
  std::string name_;
  std::chrono::steady_clock::time_point wall0_;
  std::clock_t cpu0_;
  bool stopped_ = false;
};

}  // namespace socfmea::obs
