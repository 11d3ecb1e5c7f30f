// Canonical FMEA flow configuration for the frmem protection IP (the paper's
// Section-6 experiment).  Encodes the architecture knowledge the YOGITECH
// engineers entered in the spreadsheet: component classes, S/D factors,
// frequency classes, and — crucially — the per-version DDF claims:
//
//   v1: SEC-DED ECC on the array (but NOT on addressing), scrubbing; the
//       decoder, write buffer, address latching and MCE bus registers are
//       uncovered -> SFF lands around 95 %, short of SIL3.
//   v2: address-in-code, write-buffer parity, post-coder checker,
//       double-redundant pipeline checker, distributed syndrome checking,
//       SW start-up tests -> SFF >= 99 % (paper: 99.38 %), SIL3.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/flow.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"

namespace socfmea::core {

// The frmem iteration campaign that `memsys_sil3_flow --cache-dir` and
// `arch_search` both run.  Every value below enters the campaign's store
// key, so the two tools share one artifact store because they read these
// constants.
inline constexpr std::uint64_t kFrmemWorkloadCycles = 2000;
/// IncrementalOptions::memFaultsPerKind: the array dominates the IP's FIT
/// budget, so a deterministic per-kind sample weights it beyond the
/// per-zone quota (same keys on every variant).
inline constexpr std::size_t kFrmemMemFaultsPerKind = 48;
inline constexpr std::size_t kFrmemPerBit = 1;
inline constexpr std::uint64_t kFrmemCampaignSeed = 7;
inline constexpr std::uint64_t kFrmemDetectionWindow = 24;

/// The campaign's workload: kFrmemWorkloadCycles at the default seed.
[[nodiscard]] memsys::ProtectionIpWorkload::Options frmemWorkloadOptions();

/// IncrementalOptions::workloadTag of frmemWorkloadOptions().
[[nodiscard]] std::uint64_t frmemWorkloadTag();

/// Builds the complete flow configuration for a generated protection IP.
/// The claims entered depend on design.options (each v2 measure contributes
/// its claims only when present, enabling the per-measure ablation).
[[nodiscard]] FlowConfig makeFrmemFlowConfig(
    const memsys::GateLevelDesign& design);

}  // namespace socfmea::core
