// Experiment BITSLICED: throughput of the bit-sliced fault-parallel engine
// vs the serial event-driven oracle on the memsys protection-IP campaign.
// Up to 256 faulty machines share one SIMD word group (one lockstep golden
// Simulator plus per-net divergence words), lanes retire the moment their
// verdict is final and are refilled from the pending transient queue, and
// whole levels outside the group's union forward cone are skipped.  Records
// are verified bit-identical to the serial oracle before any number is
// reported; the headline figures land in BENCH_bitsliced.json for CI trend
// tracking (a reference copy is checked in under reports/).
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "fault/collapse.hpp"
#include "faultsim/bitsliced.hpp"
#include "faultsim/lanes.hpp"
#include "inject/analyzer.hpp"
#include "obs/telemetry.hpp"

using namespace socfmea;

namespace {

struct Setup {
  inject::InjectionEnvironment env;
  memsys::ProtectionIpWorkload wl;
  fault::FaultList faults;

  Setup(std::uint64_t cycles, std::size_t nFaults)
      : env(inject::EnvironmentBuilder(benchutil::frmem().flowV2.zones(),
                                       benchutil::frmem().flowV2.effects())
                .withSeed(4)
                .withDetectionWindow(24)
                .build()),
        wl(benchutil::frmem().v2, benchutil::workloadOptions(cycles)) {
    auto& f = benchutil::frmem();
    const auto& db = f.flowV2.zones();
    const auto profile =
        inject::OperationalProfile::record(db, wl, wl.cycles());
    // The full campaign mix: permanents (stuck-at) and transients (SEU/SET)
    // — permanents fill the word groups densely, transients exercise lane
    // refill and washout retirement.
    fault::FaultList candidates = fault::allStuckAtFaults(f.v2.nl);
    fault::append(candidates, fault::allSeuFaults(f.v2.nl));
    fault::append(candidates, fault::allSetFaults(f.v2.nl));
    inject::collapseAgainstProfile(db, profile, candidates);
    faults = inject::randomizeFaultList(db, profile, candidates, nFaults, 4);
  }
};

struct Measurement {
  double seconds = 0.0;
  inject::CampaignResult result;
  faultsim::BitslicedStats stats;  ///< engine-level, bitsliced runs only
};

Measurement timedRun(inject::InjectionManager& mgr, Setup& s,
                     const inject::CampaignOptions& opt) {
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t retired0 =
      reg.counter("faultsim.bitsliced.lanes_retired_early");
  Measurement m;
  const auto t0 = std::chrono::steady_clock::now();
  m.result = mgr.run(s.wl, s.faults, nullptr, opt);
  m.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (opt.engine == faultsim::EngineKind::Bitsliced) {
    m.stats.lanesRetiredEarly =
        reg.counter("faultsim.bitsliced.lanes_retired_early") - retired0;
    m.stats.laneWords =
        static_cast<unsigned>(reg.gauge("faultsim.bitsliced.simd_width") / 64);
  }
  return m;
}

bool recordsIdentical(const inject::CampaignResult& a,
                      const inject::CampaignResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].outcome != b.records[i].outcome) return false;
    if (a.records[i].obs.diagCycle != b.records[i].obs.diagCycle) return false;
  }
  return true;
}

void printTable() {
  benchutil::banner(
      "BITSLICED",
      "bit-sliced fault-parallel engine vs the serial event-driven oracle");
  auto& f = benchutil::frmem();
  obs::Registry& reg = obs::Registry::global();
  std::cout << "design frmem-v2 (" << f.v2.nl.cellCount() << " cells), SIMD "
            << "target " << faultsim::simdTargetName() << " ("
            << faultsim::resolveLaneWords(0) * 64 << " lanes/word), "
            << core::resolveThreadCount(0) << " hardware thread(s)\n\n";

  Setup s(1000, 512);
  std::size_t transients = 0;
  for (const auto& ft : s.faults) transients += ft.transient() ? 1 : 0;
  std::cout << "campaign: " << s.faults.size() << " faults (" << transients
            << " transient), " << s.wl.cycles() << "-cycle workload\n";
  inject::InjectionManager mgr(f.v2.nl, s.env);

  inject::CampaignOptions serialOpt;  // threads = 1: the reference oracle
  const Measurement serial = timedRun(mgr, s, serialOpt);

  inject::CampaignOptions widest;
  widest.engine = faultsim::EngineKind::Bitsliced;
  const Measurement sliced = timedRun(mgr, s, widest);
  const double occupancy = reg.gauge("faultsim.bitsliced.lane_occupancy");

  inject::CampaignOptions portable = widest;
  portable.laneWords = 1;  // the 64-lane portable width
  const Measurement sliced1 = timedRun(mgr, s, portable);

  inject::CampaignOptions fourThreads = widest;
  fourThreads.threads = 4;
  const Measurement sliced4 = timedRun(mgr, s, fourThreads);

  const bool identical = recordsIdentical(serial.result, sliced.result) &&
                         recordsIdentical(serial.result, sliced1.result) &&
                         recordsIdentical(serial.result, sliced4.result);
  std::cout << "verdicts vs serial oracle: "
            << (identical ? "IDENTICAL" : "** MISMATCH **") << "\n\n";

  const double n = static_cast<double>(s.faults.size());
  std::cout << "engine                |  wall s | faults/s | speedup\n";
  const auto row = [&](const char* label, const Measurement& m) {
    std::printf("%-21s | %7.2f | %8.1f | %6.2fx\n", label, m.seconds,
                n / m.seconds, serial.seconds / m.seconds);
  };
  row("serial event-driven", serial);
  row("bitsliced (auto)", sliced);
  row("bitsliced (64-lane)", sliced1);
  row("bitsliced (4 threads)", sliced4);
  const double retireRate =
      static_cast<double>(sliced.stats.lanesRetiredEarly) / n;
  std::printf("\nlane occupancy %.1f%%, early retirement %.1f%%\n",
              occupancy * 100.0, retireRate * 100.0);

  benchutil::JsonDump dump("BENCH_bitsliced.json");
  dump.field("design", "frmem-v2")
      .field("campaign", "mixed")
      .field("workload_cycles", s.wl.cycles())
      .field("faults", static_cast<std::uint64_t>(s.faults.size()))
      .field("identical_to_serial", identical)
      .field("simd_target", faultsim::simdTargetName())
      .field("simd_width_lanes",
             static_cast<std::uint64_t>(sliced.stats.laneWords) * 64)
      .field("serial_wall_s", serial.seconds)
      .field("serial_faults_per_s", n / serial.seconds)
      .field("bitsliced_wall_s", sliced.seconds)
      .field("bitsliced_faults_per_s", n / sliced.seconds)
      .field("bitsliced_speedup", serial.seconds / sliced.seconds)
      .field("bitsliced64_wall_s", sliced1.seconds)
      .field("bitsliced64_speedup", serial.seconds / sliced1.seconds)
      .field("bitsliced_threads4_wall_s", sliced4.seconds)
      .field("bitsliced_threads4_speedup", serial.seconds / sliced4.seconds)
      .field("lane_occupancy", occupancy)
      .field("lanes_retired_early", sliced.stats.lanesRetiredEarly)
      .field("retirement_rate", retireRate);
  dump.write();
}

Setup& benchSetup() {
  static Setup s(600, 192);
  return s;
}

void BM_CampaignSerial(benchmark::State& state) {
  auto& f = benchutil::frmem();
  Setup& s = benchSetup();
  inject::InjectionManager mgr(f.v2.nl, s.env);
  for (auto _ : state) {
    const auto res = mgr.run(s.wl, s.faults);
    benchmark::DoNotOptimize(res.records.size());
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(s.faults.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignSerial)->Unit(benchmark::kMillisecond);

void BM_CampaignBitsliced(benchmark::State& state) {
  auto& f = benchutil::frmem();
  Setup& s = benchSetup();
  inject::InjectionManager mgr(f.v2.nl, s.env);
  inject::CampaignOptions opt;
  opt.engine = faultsim::EngineKind::Bitsliced;
  opt.laneWords = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const auto res = mgr.run(s.wl, s.faults, nullptr, opt);
    benchmark::DoNotOptimize(res.records.size());
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(s.faults.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignBitsliced)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
