#include "obs/telemetry.hpp"

namespace socfmea::obs {

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

void Registry::add(std::string_view counter, std::uint64_t delta) {
  const std::scoped_lock lock(mu_);
  const auto it = counters_.find(counter);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(counter), delta);
  }
}

void Registry::set(std::string_view gauge, double value) {
  const std::scoped_lock lock(mu_);
  const auto it = gauges_.find(gauge);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(gauge), value);
  }
}

void Registry::record(std::string_view timer, double wallSeconds,
                      double cpuSeconds) {
  const std::scoped_lock lock(mu_);
  auto it = timers_.find(timer);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(timer), TimerStat{}).first;
  }
  it->second.wallSeconds += wallSeconds;
  it->second.cpuSeconds += cpuSeconds;
  ++it->second.count;
}

void Registry::clear() {
  const std::scoped_lock lock(mu_);
  counters_.clear();
  gauges_.clear();
  timers_.clear();
}

std::uint64_t Registry::counter(std::string_view name) const {
  const std::scoped_lock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Registry::gauge(std::string_view name) const {
  const std::scoped_lock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

TimerStat Registry::timer(std::string_view name) const {
  const std::scoped_lock lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

Json Registry::toJson() const {
  const std::scoped_lock lock(mu_);
  Json j = Json::object();
  Json& counters = j["counters"] = Json::object();
  for (const auto& [k, v] : counters_) counters[k] = Json(v);
  Json& gauges = j["gauges"] = Json::object();
  for (const auto& [k, v] : gauges_) gauges[k] = Json(v);
  Json& timers = j["timers"] = Json::object();
  for (const auto& [k, v] : timers_) {
    Json& t = timers[k];
    t["wall_s"] = Json(v.wallSeconds);
    t["cpu_s"] = Json(v.cpuSeconds);
    t["count"] = Json(v.count);
  }
  return j;
}

ScopedTimer::ScopedTimer(std::string name, Registry& reg)
    : reg_(&reg),
      name_(std::move(name)),
      wall0_(std::chrono::steady_clock::now()),
      cpu0_(std::clock()) {}

ScopedTimer::~ScopedTimer() { stop(); }

void ScopedTimer::stop() {
  if (stopped_) return;
  stopped_ = true;
  const double cpu =
      static_cast<double>(std::clock() - cpu0_) / CLOCKS_PER_SEC;
  reg_->record(name_, elapsedWallSeconds(), cpu);
}

double ScopedTimer::elapsedWallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall0_)
      .count();
}

}  // namespace socfmea::obs
