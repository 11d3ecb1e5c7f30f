// Transform library — the proposal half of the closed-loop architecture
// search.  Generalizes the diagnostics hard-wired into the memsys reference
// designs (parity trees, duplication+compare, address/data coding on the
// array, deployment-time test policies) into parameterized, cone-targeted
// netlist edits built on netlist::Builder.
//
// Soundness contract: every netlist transform is a PURE ADDITION — new
// cells, nets, memories and primary outputs only; no existing cell or
// memory signature changes.  netlist::diff therefore reports only added
// items, so the incremental flow's affected-cone reuse stays valid: faults
// outside the new checker's fan-in keep their cached verdicts
// bit-identically.  applyTransform() verifies the contract (cell/memory
// counts grow, no rewiring) and the unit tests diff every transform against
// its base design to pin it.
//
// Policy transforms (start-up test deployment, scrub-rate changes) edit no
// netlist at all: they install analytic DDF claims through the sheet hook,
// mirroring the paper's v2 software measures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fmea/sheet.hpp"
#include "netlist/builder.hpp"
#include "obs/json.hpp"

namespace socfmea::search {

enum class TransformKind : std::uint8_t {
  /// Parity flip-flop predicted from the bank's D inputs, compared against
  /// the bank's Q parity — one extra FF per bank, catches odd-weight state
  /// corruption (SEU) and stuck Q bits.
  ParityPredict,
  /// Full shadow copy of the bank plus a comparator — n extra FFs, catches
  /// any state divergence including even-weight multi-bit upsets.
  DuplicateCompare,
  /// Side memory holding an XOR-fold signature of every written word,
  /// compared against the fold of the read data on every read — catches
  /// addressing faults (no/wrong/multiple), stuck cells and cross-over the
  /// main array's ECC cannot see, without touching the encoder (the
  /// additive generalization of the paper's address-in-code measure).
  MemSignature,
  /// Deployment policy: boot-time march / self-test / I/O pattern claims
  /// (the paper's v2 SW start-up tests).  No netlist edit.
  StartupTests,
  /// Deployment policy: raised scrub rate on the array (soft-error
  /// residency shrinks).  No netlist edit.
  ScrubRate,
};

[[nodiscard]] std::string_view transformKindName(TransformKind k) noexcept;

/// One candidate edit: a kind plus its target.
struct TransformSpec {
  TransformKind kind = TransformKind::ParityPredict;
  /// Register-bank stem ("out/rdata_r") for the bank transforms, memory
  /// instance name ("mem/array") for MemSignature, zone-name pattern (may
  /// be empty = design-wide) for StartupTests / ScrubRate.
  std::string target;
  /// MemSignature fold width in bits (default 8).
  std::uint32_t param = 0;

  [[nodiscard]] std::string id() const;

  /// Report form (the search report lists every candidate's transforms).
  [[nodiscard]] obs::Json toJson() const;
};

/// A sheet claim the transform installs (applied through the flow config's
/// configureSheet hook on top of the base design's claims).
struct ClaimEdit {
  std::string zonePattern;
  std::string modePattern;
  fmea::DiagnosticClaim claim;
};

/// Result of applying one transform.
struct AppliedTransform {
  TransformSpec spec;
  std::string id;
  std::size_t gateCost = 0;     ///< cells + memory bits added
  std::size_t cellsAdded = 0;
  std::size_t memsAdded = 0;
  std::vector<std::string> alarmNames;  ///< new alarm outputs (diag nets)
  std::vector<ClaimEdit> claims;        ///< analytic claims to install
};

/// Register banks a bank transform can target: DFF groups sharing an
/// instance-name stem (trailing bit index stripped), enable and reset.
struct BankTarget {
  std::string prefix;  ///< common instance-name stem (bit index stripped)
  std::size_t width = 0;
};
[[nodiscard]] std::vector<BankTarget> enumerateBanks(
    const netlist::Netlist& nl);

/// Applies `spec` to `nl` in place under a fresh `scope` prefix (e.g.
/// "srch0"); alarm outputs are named "<scope>/alarm".  Returns std::nullopt
/// when the target cannot be resolved (unknown bank/memory, mixed
/// enables).  Append-only by construction; throws netlist::NetlistError if
/// the post-condition is violated.
[[nodiscard]] std::optional<AppliedTransform> applyTransform(
    netlist::Netlist& nl, const TransformSpec& spec, std::string_view scope);

/// Applies `specs` in order under the canonical scopes "srch0", "srch1",
/// ... — the one spelling shared by candidate evaluation and the final cold
/// re-run, so every rebuild of a candidate hashes identically.
/// std::nullopt (with `nl` possibly partially edited) when any spec fails
/// to resolve.
[[nodiscard]] std::optional<std::vector<AppliedTransform>> applyTransforms(
    netlist::Netlist& nl, const std::vector<TransformSpec>& specs);

}  // namespace socfmea::search
