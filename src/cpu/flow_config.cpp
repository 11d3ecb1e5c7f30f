#include "cpu/flow_config.hpp"

namespace socfmea::cpu {

using fmea::DiagnosticClaim;
using fmea::FmeaSheet;
using fmea::FreqClass;
using fmea::SdFactors;

core::FlowConfig makeCpuFlowConfig(const CpuDesign& design) {
  core::FlowConfig cfg;
  cfg.alarmNames = design.alarmNames;
  cfg.extract.compactRegisters = true;
  cfg.extract.criticalNetFanout = 24;  // reset / phase distribution
  cfg.sheet.elementType = fmea::ElementType::TypeB;
  cfg.sheet.hft = 0;

  // The paper's logical-entity example, literally: "wrong conditional field
  // of a conditional instruction" — the branch condition is the Z flag plus
  // the opcode field of the fetched instruction, whether or not those map to
  // one memory element.
  {
    zones::LogicalEntitySpec cond;
    cond.name = "cpu0/branch_condition";
    cond.nets = {"cpu0/zflag_q", "prog/rdata_4", "prog/rdata_5",
                 "prog/rdata_6", "prog/rdata_7"};
    cfg.extract.logicalEntities.push_back(std::move(cond));
  }

  const CpuOptions opt = design.options;
  cfg.configureSheet = [opt](FmeaSheet& sheet, const zones::ZoneDatabase& db) {
    const fmea::FitModel fit;
    // Processing-unit failure modes for the architectural state; the program
    // store is invariable memory.
    sheet.reclassifyZones(db, fit, "cpu", fmea::ComponentClass::ProcessingUnit);
    sheet.reclassifyZones(db, fit, "prog/rom",
                          fmea::ComponentClass::InvariableMemory);

    // Architectural masking: the register file is live whenever the program
    // uses it; the CPU state masks little.
    sheet.setSafeFactors("", SdFactors{0.20, 0.0});
    sheet.setFrequency("", FreqClass::Continuous, 0.7);
    // Diagnostic logic (FMEDA treatment, see frmem_config).
    sheet.setSafeFactors("lockchk", SdFactors{0.95, 0.0});
    sheet.setSafeFactors("alarm", SdFactors{0.95, 0.0});

    if (opt.lockstep) {
      // The hardware comparator sees every architectural-state divergence of
      // either channel: the norm's highest-rated processing-unit technique.
      for (const char* mode :
           {"cpu-reg-dc", "cpu-wrong-coding", "cpu-crossover", "cpu-seu"}) {
        sheet.addClaim("cpu0/", mode, DiagnosticClaim{"cpu-comparator", 0.99});
        sheet.addClaim("cpu1/", mode, DiagnosticClaim{"cpu-comparator", 0.99});
      }
      // A corrupted shared fetch stream corrupts BOTH channels identically —
      // common mode the comparator cannot see; only the STL/CRC covers it.
    }
    if (opt.stl) {
      // SW test library at start-up: permanent faults in the execution units
      // and the decode paths fail the signature check.
      sheet.addClaim("cpu0/", "cpu-reg-dc",
                     DiagnosticClaim{"cpu-self-test-sw", 0.85});
      sheet.addClaim("cpu0/", "cpu-wrong-coding",
                     DiagnosticClaim{"cpu-self-test-sw", 0.85});
      sheet.addClaim("cpu1/", "cpu-reg-dc",
                     DiagnosticClaim{"cpu-self-test-sw", 0.85});
      sheet.addClaim("cpu1/", "cpu-wrong-coding",
                     DiagnosticClaim{"cpu-self-test-sw", 0.85});
      // Program store integrity: boot-time CRC over the ROM image.
      sheet.addClaim("prog/rom", "", DiagnosticClaim{"rom-crc", 0.90});
    }
  };
  return cfg;
}

core::FlowConfig makeMitigationFlowConfig(const CpuDesign& design,
                                          SwMitigation mitigation) {
  core::FlowConfig cfg = makeCpuFlowConfig(design);
  const CpuOptions opt = design.options;
  auto base = cfg.configureSheet;
  cfg.configureSheet = [base, opt, mitigation](FmeaSheet& sheet,
                                               const zones::ZoneDatabase& db) {
    base(sheet, db);
    if (opt.trap) {
      // The trap decode/latch is diagnostic logic, like the lockstep
      // checker: a fault there loses the annunciation channel, it does not
      // corrupt the mission function.
      sheet.setSafeFactors("trapchk", SdFactors{0.95, 0.0});
    }
    switch (mitigation) {
      case SwMitigation::None:
        break;
      case SwMitigation::Tmr:
        // No annunciation channel: triplicated stores plus timing-neutral
        // voted loads convert register corruption into masking, claimed as
        // a raised safe fraction, never as DC.
        sheet.setSafeFactors("cpu0/r", SdFactors{0.70, 0.0});
        break;
      case SwMitigation::Dwc:
        // Reciprocal comparison guards the duplicated pair r0/r1 in the
        // store-to-next-load window; r2 is unguarded scratch.
        for (const char* mode : {"cpu-reg-dc", "cpu-seu"}) {
          sheet.addClaim("cpu0/r0", mode,
                         DiagnosticClaim{"cpu-reciprocal-compare", 0.85});
          sheet.addClaim("cpu0/r1", mode,
                         DiagnosticClaim{"cpu-reciprocal-compare", 0.85});
        }
        break;
      case SwMitigation::Cfcss:
        // Signatures see inter-block edges only — intra-block wild jumps
        // escape, so the claim stays below the Annex A "medium" ceiling.
        sheet.addClaim("cpu0/pc", "cpu-seu", DiagnosticClaim{"cfcss", 0.70});
        sheet.addClaim("cpu0/pc", "cpu-crossover",
                       DiagnosticClaim{"cfcss", 0.70});
        sheet.addClaim("cpu0/branch_condition", "",
                       DiagnosticClaim{"cfcss", 0.60});
        break;
    }
  };
  return cfg;
}

}  // namespace socfmea::cpu
