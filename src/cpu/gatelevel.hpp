// Gate-level generator for the tiny CPU — the processing-unit case study.
// Options produce the safety architectures the benches and the mitigation
// scenario suite compare:
//
//   plain     one core, no safety mechanism;
//   lockstep  two identical cores sharing the fetch stream, with a
//             hardware comparator on PC/ACC/OUT ("comparator" technique,
//             IEC Annex A.4, max DC "high").  With skewCycles=1 the checker
//             channel runs one cycle behind the master (temporal diversity):
//             it consumes the fetch stream through a delay register and the
//             comparator checks it against the master's delayed state;
//   + stl     claims-only: the SW test library (the self-test program run
//             at start-up) covering permanent faults;
//   + trap    decodes the TRAP opcode into a sticky alarm_trap output and a
//             core halt — the annunciation channel of the software
//             mitigations (cpu/mitigations.hpp);
//   fallback  lockstep only: a sticky fallback_active output that latches on
//             the first miscompare (degrade-to-single-core annunciation; the
//             momentary alarm_r may drop again, the latch never does).
//
// A non-empty `program` synthesizes the ROM as combinational LUT logic
// instead of the behavioural memory: the design is then self-contained (no
// backdoor load), so it round-trips through .snl text and replays under a
// plain reset-vector workload (what fuzz_diff's CPU cases and the corpus
// repros rely on).  `minimalObs` restricts the functional outputs to the
// OUT port (plus alarms) so that timing-neutral software voting is not
// penalized by the cycle-accurate PC observation.
#pragma once

#include "cpu/isa.hpp"
#include "netlist/builder.hpp"

namespace socfmea::cpu {

struct CpuOptions {
  bool lockstep = false;
  bool stl = false;  ///< SW test library deployed (affects FMEA claims only)
  bool trap = false;  ///< decode TRAP into the sticky alarm_trap output
  /// Checker-channel skew in cycles (0 = cycle-aligned, 1 = skewed).
  /// Lockstep only; values above 1 are rejected by buildTinyCpu.
  unsigned skewCycles = 0;
  /// Lockstep only: emit the sticky fallback_active output.
  bool fallback = false;
  /// Non-empty: synthesize the ROM from this image (padded to the program
  /// space) instead of instantiating the behavioural memory.
  std::vector<std::uint8_t> program;
  /// Outputs = OUT port + alarms only (no pc_o / halted).
  bool minimalObs = false;

  [[nodiscard]] static CpuOptions plain() { return {}; }
  [[nodiscard]] static CpuOptions lockstepCpu() {
    CpuOptions o;
    o.lockstep = true;
    return o;
  }
  [[nodiscard]] static CpuOptions lockstepStl() {
    CpuOptions o;
    o.lockstep = true;
    o.stl = true;
    return o;
  }
};

/// Handles into one generated core (all Q-nets).
struct CoreHandles {
  netlist::Bus pc;    // 6 bits
  netlist::Bus acc;   // 8 bits
  netlist::Bus out;   // 8 bits
  netlist::NetId halted = netlist::kNoNet;
  /// exec & isTrap, only when the trap option is on.
  netlist::NetId trapEvent = netlist::kNoNet;
};

struct CpuDesign {
  netlist::Netlist nl;
  CpuOptions options;
  netlist::NetId rst = netlist::kNoNet;
  CoreHandles core0;
  std::vector<std::string> alarmNames;  ///< alarm_lock and/or alarm_trap

  /// True when the program store is the behavioural memory loaded through
  /// the workload backdoor (empty options.program).
  [[nodiscard]] bool behaviouralRom() const { return options.program.empty(); }
};

/// Builds the design: program memory (behavioural and backdoor-loaded, or
/// synthesized from options.program), one or two cores, optional lockstep
/// comparator / skew channel / trap decode.  Primary outputs: port_0..7,
/// pc_o_0..5 and halted (unless minimalObs), alarm_lock for lockstep,
/// alarm_trap for trap, fallback_active for fallback.
[[nodiscard]] CpuDesign buildTinyCpu(const CpuOptions& opt);

}  // namespace socfmea::cpu
