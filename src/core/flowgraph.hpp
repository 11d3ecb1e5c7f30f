// The flow's stage timer.  A stage is a named step of the flow (compile,
// zones, sheet; the incremental flow adds its campaign); run through the
// timer it records its wall time for the --json reports and the benchmark's
// per-layer split.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace socfmea::core {

struct StageRecord {
  std::string name;
  double seconds = 0.0;
};

class FlowGraph {
 public:
  /// Runs `work` as stage `name` and records its wall time.
  void stage(std::string_view name, const std::function<void()>& work);

  [[nodiscard]] const std::vector<StageRecord>& records() const noexcept {
    return records_;
  }

  /// The per-stage table: {"stages": [{"name", "seconds"}, ...]}.
  [[nodiscard]] obs::Json report() const;

 private:
  std::vector<StageRecord> records_;
};

}  // namespace socfmea::core
