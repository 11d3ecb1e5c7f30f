#include "core/frmem_config.hpp"

#include "netlist/hash.hpp"

namespace socfmea::core {

using fmea::DiagnosticClaim;
using fmea::FmeaSheet;
using fmea::FreqClass;
using fmea::SdFactors;
using memsys::GateLevelDesign;
using memsys::GateLevelOptions;

FlowConfig makeFrmemFlowConfig(const GateLevelDesign& design) {
  FlowConfig cfg;
  cfg.alarmNames = design.alarmNames;
  cfg.extract.compactRegisters = true;
  cfg.extract.criticalNetFanout = 32;  // reset tree, syndrome distribution nets
  cfg.sheet.elementType = fmea::ElementType::TypeB;
  cfg.sheet.hft = 0;
  // Pad/bond FIT for the IP-level pins (package-level pin failures are the
  // enclosing SoC's budget).
  cfg.fit.pinPermanent = 0.004;

  const GateLevelOptions opt = design.options;
  cfg.configureSheet = [opt](FmeaSheet& sheet, const zones::ZoneDatabase& db) {
    const fmea::FitModel fit;  // populate already ran; reclassify re-derives
    // --- component classes ------------------------------------------------------
    sheet.reclassifyZones(db, fit, "mem/array", fmea::ComponentClass::VariableMemory);

    // --- S factors (architectural masking) and usage frequencies ----------------
    // Logic default: a third of cone faults are architecturally safe (masked
    // conditions, unused modes).
    sheet.setSafeFactors("", SdFactors{0.30, 0.0});
    // Injection-calibrated architectural masking: ECC-coded registers and
    // the output stage mask essentially nothing (every flip is live data);
    // the bus-interface and read-address registers are live only when an
    // operation is in flight (measured ~50 % masked).
    sheet.setSafeFactors("dec/s1", SdFactors{0.05, 0.0});
    sheet.setSafeFactors("wbuf/", SdFactors{0.05, 0.0});
    sheet.setSafeFactors("out/rdata", SdFactors{0.05, 0.0});
    sheet.setSafeFactors("mce/wdata_r", SdFactors{0.45, 0.0});
    sheet.setSafeFactors("mce/addr_r", SdFactors{0.15, 0.0});
    sheet.setSafeFactors("ctrl/rd_addr", SdFactors{0.45, 0.0});
    // The data path is in continuous use; configuration and BIST much less.
    sheet.setFrequency("", FreqClass::High, 0.6);
    sheet.setFrequency("mce/mpu", FreqClass::Continuous, 0.2);
    sheet.setFrequency("bist", FreqClass::VeryLow, 0.3);
    sheet.setSafeFactors("bist", SdFactors{0.60, 0.0});  // mission-idle block
    // Primary I/O: half the pin faults hit non-safety-relevant modes.
    sheet.setSafeFactors(".in", SdFactors{0.50, 0.0});
    sheet.setFrequency("mem/array", FreqClass::Continuous, 0.5);
    // FMEDA treatment of the diagnostic logic itself: a single fault in a
    // checker or alarm path cannot corrupt the mission data — it either
    // raises a spurious alarm (safe, annunciated) or goes latent until a
    // second fault.  At HFT 0 these zones are overwhelmingly safe.
    sheet.setSafeFactors("alarm", SdFactors{0.95, 0.0});
    sheet.setSafeFactors("coderchk", SdFactors{0.95, 0.0});
    sheet.setSafeFactors("redchk", SdFactors{0.95, 0.0});
    sheet.setSafeFactors("mce/wpar_r", SdFactors{0.90, 0.0});
    sheet.setSafeFactors("mce/apar_r", SdFactors{0.90, 0.0});

    // --- diagnostics present in BOTH versions ------------------------------------
    // ECC on the array: covers cell-data faults, cross-over and soft errors
    // at the norm's "high" ceiling; v1 does NOT cover addressing.
    sheet.addClaim("mem/array", "mem-dc-data",
                   DiagnosticClaim{"ram-ecc", 0.99});
    sheet.addClaim("mem/array", "mem-crossover",
                   DiagnosticClaim{"ram-ecc", 0.95});
    sheet.addClaim("mem/array", "mem-soft-error",
                   DiagnosticClaim{"ram-ecc", 0.99});
    sheet.addClaim("mem/array", "mem-soft-error",
                   DiagnosticClaim{"scrubbing", 0.90});
    // MPU attribute-register corruption: denying *legal* traffic raises the
    // violation alarm, so roughly half the corruptions self-annunciate.
    sheet.addClaim("mce/mpu", "", DiagnosticClaim{"mpu-pages", 0.50});

    // --- v2 measures (each contributes only when built in) ------------------------
    if (opt.addressInCode) {
      // Addressing faults become code errors at read time.
      sheet.addClaim("mem/array", "mem-dc-addr",
                     DiagnosticClaim{"addr-in-code", 0.99});
      sheet.addClaim("mem/array", "mem-addressing",
                     DiagnosticClaim{"addr-in-code", 0.99});
      // Address-latching registers on the READ path are fully covered (a
      // corrupted read address makes the fold mismatch the stored word).
      // The bus-interface address register also feeds the write path, where
      // the fold is computed *after* the corruption — only about half its
      // faults surface.
      sheet.addClaim("ctrl/rd_addr", "", DiagnosticClaim{"addr-in-code", 0.95});
      sheet.addClaim("dec/s1_addr", "", DiagnosticClaim{"addr-in-code", 0.95});
      sheet.addClaim("mce/addr_r", "", DiagnosticClaim{"addr-in-code", 0.40});
    }
    if (opt.wbufParity) {
      // End-to-end write-path parity: generated at the bus interface,
      // carried with the data, checked at the buffer drain.  Single-bit
      // corruption anywhere on that path flips the parity.
      sheet.addClaim("wbuf/", "", DiagnosticClaim{"bus-parity", 0.60});
      sheet.addClaim("mce/wdata_r", "", DiagnosticClaim{"bus-parity", 0.60});
      sheet.addClaim("mce/addr_r", "", DiagnosticClaim{"bus-parity", 0.50});
    }
    if (opt.postCoderChecker) {
      // Covers the decoder's code-generator section and the latched
      // syndrome/code registers.
      sheet.addClaim("dec/s1_syn", "", DiagnosticClaim{"redundant-checker", 0.99});
      sheet.addClaim("dec/s1_par", "", DiagnosticClaim{"redundant-checker", 0.99});
      sheet.addClaim("dec/s1_code", "", DiagnosticClaim{"redundant-checker", 0.95});
    }
    if (opt.redundantChecker) {
      // The duplicated correction path checks the whole stage-2 cone —
      // including the cone converging into the output registers (the bypass
      // mux and correction logic are exactly the compared logic).
      sheet.addClaim("dec/", "logic-stuck", DiagnosticClaim{"redundant-checker", 0.95});
      sheet.addClaim("dec/", "logic-set", DiagnosticClaim{"redundant-checker", 0.90});
      sheet.addClaim("dec/", "logic-seu", DiagnosticClaim{"redundant-checker", 0.90});
      sheet.addClaim("dec/", "logic-bridge", DiagnosticClaim{"redundant-checker", 0.90});
      sheet.addClaim("out/rdata", "logic-stuck", DiagnosticClaim{"redundant-checker", 0.90});
      sheet.addClaim("out/rdata", "logic-bridge", DiagnosticClaim{"redundant-checker", 0.85});
    }
    if (opt.distributedSyndrome) {
      // Finer field discrimination lifts the residual decoder coverage.
      sheet.addClaim("dec/", "", DiagnosticClaim{"syndrome-distributed", 0.60});
    }
    if (opt.monitoredOutputs) {
      // Shadow output register + comparator covers the last pipeline stage.
      sheet.addClaim("out/rdata", "", DiagnosticClaim{"io-monitored-outputs", 0.90});
    }
    // SW start-up tests (v2 deployment): cover permanent faults in the
    // controller parts and the BIST engine not reached by the runtime
    // protection; the boot-time BIST sweep doubles as an I/O test pattern
    // for the data-pin through-path.
    if (opt.addressInCode && opt.wbufParity) {
      sheet.addClaim("ctrl/", "logic-stuck",
                     DiagnosticClaim{"ram-test-march", 0.85});
      // The boot march pass writes and reads through the whole buffer/encode
      // path, so permanent faults there fail the read-back compare.
      sheet.addClaim("wbuf/", "logic-stuck",
                     DiagnosticClaim{"ram-test-march", 0.85});
      sheet.addClaim("bist", "logic-stuck",
                     DiagnosticClaim{"cpu-self-test-hw", 0.85});
      sheet.addClaim("mce/", "logic-stuck",
                     DiagnosticClaim{"cpu-self-test-sw", 0.70});
      // The chk_test latent-fault strobe proves every checker comparator and
      // alarm register alive at boot: permanent faults in the diagnostic
      // paths are annunciated instead of staying latent.
      sheet.addClaim("out/", "logic-stuck",
                     DiagnosticClaim{"cpu-self-test-hw", 0.85});
      sheet.addClaim("wbuf/", "logic-seu", DiagnosticClaim{"bus-parity", 0.60});
      sheet.addClaim(".in", "io-stuck", DiagnosticClaim{"io-test-pattern", 0.80});
    }
  };
  return cfg;
}

memsys::ProtectionIpWorkload::Options frmemWorkloadOptions() {
  memsys::ProtectionIpWorkload::Options wopt;
  wopt.cycles = kFrmemWorkloadCycles;
  return wopt;
}

std::uint64_t frmemWorkloadTag() {
  const memsys::ProtectionIpWorkload::Options wopt = frmemWorkloadOptions();
  return netlist::hashMix(netlist::hashString("protection-ip-workload"),
                          netlist::hashMix(wopt.cycles, wopt.seed));
}

}  // namespace socfmea::core
