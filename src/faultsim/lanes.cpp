#include "faultsim/lanes.hpp"

#include <algorithm>

namespace socfmea::faultsim {

unsigned resolveLaneWords(unsigned /*requested*/) noexcept { return 1; }

const char* simdTargetName() noexcept { return "portable"; }

LaneScheduler::LaneScheduler(const fault::FaultList& faults)
    : faults_(&faults) {
  order_.resize(faults.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     const fault::Fault& fa = faults[a];
                     const fault::Fault& fb = faults[b];
                     const std::uint64_t ca = fa.transient() ? fa.cycle : 0;
                     const std::uint64_t cb = fb.transient() ? fb.cycle : 0;
                     if (fa.transient() != fb.transient()) {
                       return !fa.transient();  // permanents first
                     }
                     return ca < cb;
                   });
  taken_.assign(order_.size(), 0);
}

std::vector<std::size_t> LaneScheduler::takeGroup(std::size_t maxLanes) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> group;
  while (head_ < order_.size() && taken_[head_] != 0) ++head_;
  for (std::size_t i = head_; i < order_.size() && group.size() < maxLanes;
       ++i) {
    if (taken_[i] != 0) continue;
    taken_[i] = 1;
    group.push_back(order_[i]);
  }
  return group;
}

std::optional<std::size_t> LaneScheduler::takeRefill(std::uint64_t minCycle) {
  const std::lock_guard<std::mutex> lock(mu_);
  while (head_ < order_.size() && taken_[head_] != 0) ++head_;
  for (std::size_t i = head_; i < order_.size(); ++i) {
    if (taken_[i] != 0) continue;
    const fault::Fault& f = (*faults_)[order_[i]];
    if (!f.transient()) continue;
    if (f.cycle < minCycle) continue;
    taken_[i] = 1;
    return order_[i];
  }
  return std::nullopt;
}

}  // namespace socfmea::faultsim
