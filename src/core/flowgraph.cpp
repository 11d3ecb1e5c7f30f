#include "core/flowgraph.hpp"

#include <chrono>

namespace socfmea::core {

void FlowGraph::stage(std::string_view name,
                      const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  records_.push_back(StageRecord{
      std::string(name),
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count()});
}

obs::Json FlowGraph::report() const {
  obs::Json stages = obs::Json::array();
  for (const StageRecord& rec : records_) {
    obs::Json s = obs::Json::object();
    s["name"] = rec.name;
    s["seconds"] = rec.seconds;
    stages.push_back(std::move(s));
  }
  obs::Json j = obs::Json::object();
  j["stages"] = std::move(stages);
  return j;
}

}  // namespace socfmea::core
