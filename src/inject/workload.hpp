// Generic reusable workloads: explicit vector sequences, constrained-random
// stimulus over all primary inputs, and lambda-driven testbenches.  Domain
// workloads (memory traffic, scrub cycles, MPU violations) live in
// memsys/workloads.hpp.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "sim/workload.hpp"

namespace socfmea::inject {

/// Replays explicit vectors: values[cycle][i] drives inputs[i].
class VectorWorkload : public sim::Workload {
 public:
  VectorWorkload(std::vector<netlist::NetId> inputs,
                 std::vector<std::vector<bool>> values);

  [[nodiscard]] std::uint64_t cycles() const override { return values_.size(); }
  void drive(sim::Simulator& sim, std::uint64_t cycle) const override;

 private:
  std::vector<netlist::NetId> inputs_;
  std::vector<std::vector<bool>> values_;
};

/// Uniform random stimulus on every primary input, with optional pinned
/// inputs (reset, enables) held at fixed values: a vector table drawn at
/// construction, cycle by cycle in primary-input order.
class RandomWorkload final : public VectorWorkload {
 public:
  RandomWorkload(
      const netlist::Netlist& nl, std::uint64_t cycles, std::uint64_t seed,
      const std::vector<std::pair<netlist::NetId, bool>>& pinned = {});
};

/// Wraps a callable as a workload.
class FunctionWorkload final : public sim::Workload {
 public:
  using DriveFn = std::function<void(sim::Simulator&, std::uint64_t)>;

  FunctionWorkload(std::uint64_t cycles, DriveFn drive)
      : cycles_(cycles), drive_(std::move(drive)) {}

  [[nodiscard]] std::uint64_t cycles() const override { return cycles_; }
  void drive(sim::Simulator& sim, std::uint64_t cycle) const override {
    drive_(sim, cycle);
  }

 private:
  std::uint64_t cycles_;
  DriveFn drive_;
};

}  // namespace socfmea::inject
