// Experiment FIG5 (paper Figure 5 / Section 6): the memory sub-system
// architecture — multilayer AHB, MCE (MPU + DMA), F-MEM (codec, write
// buffer, scrubbing), memory controller and protected array — exercised
// functionally: multi-master traffic, error correction under soft errors,
// scrubbing repairs, MPU denials, and the SW start-up test library.
#include "bench_util.hpp"
#include "memsys/startup_tests.hpp"
#include "sim/rng.hpp"

using namespace socfmea;
namespace ms = socfmea::memsys;

namespace {

void printTable() {
  benchutil::banner("FIG5", "Figure 5: the memory sub-system, functionally");

  for (const bool isV2 : {false, true}) {
    const auto cfg = isV2 ? ms::MemSysConfig::v2() : ms::MemSysConfig::v1();
    ms::MemSubsystem sys(cfg);
    std::cout << "\n--- " << (isV2 ? "v2" : "v1") << " (" << cfg.describe()
              << ") ---\n";

    if (cfg.swStartupTests) {
      const auto rep = ms::runStartupTests(sys);
      ms::printStartupReport(std::cout, rep);
    }

    // Mixed multi-master traffic with soft errors planted along the way.
    sim::Rng rng(5);
    std::uint64_t planted = 0;
    const auto stats = [&] {
      ms::TrafficStats acc{};
      for (int burst = 0; burst < 10; ++burst) {
        const auto s = ms::runBehavioralTraffic(sys, 150, rng.next());
        acc.writes += s.writes;
        acc.reads += s.reads;
        acc.readMismatches += s.readMismatches;
        acc.mpuDenials += s.mpuDenials;
        acc.cycles += s.cycles;
        // Plant a soft error between bursts (scrubbing gets idle windows).
        sys.injectSoftError(rng.below(sys.array().words() * 3 / 4),
                            static_cast<std::uint32_t>(rng.below(32)));
        ++planted;
        sys.idle(64);
      }
      return acc;
    }();

    const auto alarms = sys.alarms();
    std::cout << "traffic: " << stats.writes << " writes, " << stats.reads
              << " reads over " << stats.cycles << " cycles ("
              << static_cast<double>(stats.cycles) /
                     static_cast<double>(stats.writes + stats.reads)
              << " cycles/op), " << stats.mpuDenials << " MPU denials\n";
    std::cout << "soft errors planted: " << planted
              << "; data mismatches seen by the masters: "
              << stats.readMismatches << "\n";
    ms::printAlarms(std::cout, alarms);
    const auto& scrub = sys.fmem().scrubber().stats();
    std::cout << "scrubbing: " << scrub.scansIssued << " scans, "
              << scrub.repairsIssued << " repairs, " << scrub.correctableSeen
              << " correctable errors found (forecast rate "
              << sys.fmem().scrubber().forecastRate() << ")\n";
  }
  std::cout << "\nexpected shape: zero data mismatches in both versions for "
               "single-bit errors\n(the ECC corrects them); v2 additionally "
               "discriminates error fields and\nself-tests at boot.\n";
}

void BM_TrafficThroughput(benchmark::State& state) {
  ms::MemSubsystem sys(ms::MemSysConfig::v2());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto s = ms::runBehavioralTraffic(sys, 200, seed++);
    benchmark::DoNotOptimize(s.cycles);
    state.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(s.writes + s.reads), benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_TrafficThroughput)->Unit(benchmark::kMillisecond);

void BM_StartupTests(benchmark::State& state) {
  ms::MemSubsystem sys(ms::MemSysConfig::v2());
  for (auto _ : state) {
    const auto rep = ms::runStartupTests(sys);
    benchmark::DoNotOptimize(rep.allPassed());
  }
}
BENCHMARK(BM_StartupTests)->Unit(benchmark::kMillisecond);

void BM_EncodeDecode(benchmark::State& state) {
  const ms::HammingCodec codec(true);
  std::uint32_t data = 0x12345678;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    data = data * 1664525u + 1013904223u;
    addr = (addr + 1) & 1023;
    const auto r = codec.decode(codec.encode(data, addr), addr);
    benchmark::DoNotOptimize(r.data);
  }
}
BENCHMARK(BM_EncodeDecode);

}  // namespace

int main(int argc, char** argv) {
  return benchutil::runBench(argc, argv, printTable);
}
