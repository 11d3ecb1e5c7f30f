// Content-addressed artifact store: the persistence layer of the incremental
// flow graph.  Stage outputs are JSON documents filed under
// "<stage>-<hash16>.json" where the 64-bit key is the structural hash of the
// stage's declared inputs; a small in-memory LRU fronts the disk so repeated
// lookups within one process never re-parse.  "Head" slots are the one
// mutable exception: named files ("head-<name>.json") recording the latest
// run's design text and campaign key, which the next run diffs against.
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/json.hpp"

namespace socfmea::core {

class ArtifactStore {
 public:
  /// Opens (and creates, if absent) the store directory.  Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ArtifactStore(std::filesystem::path dir, std::size_t lruCapacity = 16);

  /// Startup probe for tools taking --cache-dir from the command line:
  /// non-empty human-readable reason when `dir` cannot serve as a store
  /// (parent directory missing, path occupied by a regular file, directory
  /// not writable), nullopt when a store opened there would work.  The
  /// probe creates nothing.
  [[nodiscard]] static std::optional<std::string> validateDir(
      const std::filesystem::path& dir);

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  /// Looks up a stage artifact by content key; nullopt on miss or on a
  /// corrupt file (a corrupt artifact is indistinguishable from a miss —
  /// the caller recomputes and overwrites).
  [[nodiscard]] std::optional<obs::Json> load(std::string_view stage,
                                              std::uint64_t key);
  /// Persists a stage artifact (atomic rename over any previous file, so
  /// processes sharing one store directory never read a torn artifact).
  void save(std::string_view stage, std::uint64_t key, const obs::Json& a);

  /// Mutable named slot (latest-run head state).  Heads deliberately bypass
  /// the in-memory LRU: another process sharing the store directory (a
  /// parallel CI job, a flow CLI next to arch_search) may advance the slot
  /// between calls, and a long-running search must observe that, not a
  /// stale cache.
  ///
  /// `branch` selects an independent sub-slot of `name` ("" = the base
  /// slot).  Search workloads evaluate many candidate designs against one
  /// warm store; without per-branch heads every candidate's save would
  /// overwrite the one mutable snapshot and interleaved evaluations would
  /// thrash each other's delta baseline.
  [[nodiscard]] std::optional<obs::Json> loadHead(std::string_view name,
                                                  std::string_view branch = {});
  void saveHead(std::string_view name, const obs::Json& a);
  void saveHead(std::string_view name, std::string_view branch,
                const obs::Json& a);

  struct Stats {
    std::size_t memoryHits = 0;
    std::size_t diskHits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] obs::Json statsJson() const;

 private:
  [[nodiscard]] std::optional<obs::Json> loadFile(const std::string& file,
                                                  bool useLru = true);
  void saveFile(const std::string& file, const obs::Json& a,
                bool useLru = true);
  void touchLru(const std::string& file, const obs::Json& a);

  std::filesystem::path dir_;
  std::size_t lruCapacity_;
  std::list<std::pair<std::string, obs::Json>> lru_;  // front = most recent
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, obs::Json>>::iterator>
      lruIndex_;
  Stats stats_;
};

}  // namespace socfmea::core
