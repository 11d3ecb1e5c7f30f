#include "search/transforms.hpp"

#include <algorithm>
#include <map>

#include "netlist/cell.hpp"

namespace socfmea::search {

using netlist::Builder;
using netlist::Bus;
using netlist::kNoNet;
using netlist::NetId;

std::string_view transformKindName(TransformKind k) noexcept {
  switch (k) {
    case TransformKind::ParityPredict: return "parity";
    case TransformKind::DuplicateCompare: return "dup";
    case TransformKind::MemSignature: return "memsig";
    case TransformKind::StartupTests: return "startup";
    case TransformKind::ScrubRate: return "scrub";
  }
  return "?";
}

obs::Json TransformSpec::toJson() const {
  obs::Json j = obs::Json::object();
  j["kind"] = std::string(transformKindName(kind));
  j["target"] = target;
  if (param != 0) j["param"] = static_cast<long long>(param);
  return j;
}

std::string TransformSpec::id() const {
  std::string s(transformKindName(kind));
  s += '(';
  s += target;
  if (kind == TransformKind::MemSignature && param != 0) {
    s += ',' + std::to_string(param);
  }
  s += ')';
  return s;
}

namespace {

/// One register bank: member DFFs sorted by bit index, with the shared
/// enable/reset and the bank's D and Q buses.
struct Bank {
  std::vector<netlist::CellId> ffs;
  Bus d, q;
  NetId en = kNoNet;
  NetId rst = kNoNet;
  bool initParity = false;
};

/// Resolves a bank by its register stem — an indexed multi-bit register or
/// a single un-indexed flip-flop named exactly `stem` (state-machine bits,
/// valid flags).  Nullopt when absent or when the members disagree on
/// enable/reset (a parity predictor needs one shared load condition).
std::optional<Bank> resolveBank(const netlist::Netlist& nl,
                                std::string_view stem) {
  std::map<int, netlist::CellId> members;
  for (netlist::CellId c = 0; c < nl.cellCount(); ++c) {
    const netlist::Cell& cell = nl.cell(c);
    if (cell.type != netlist::CellType::Dff) continue;
    int bit = -1;
    if (netlist::registerStem(cell.name, bit) == stem && bit >= 0) {
      members.emplace(bit, c);
    } else if (cell.name == stem) {
      members.emplace(0, c);  // un-indexed single flip-flop
    }
  }
  if (members.empty()) return std::nullopt;
  Bank bank;
  bool first = true;
  for (const auto& [bit, c] : members) {
    const netlist::Cell& cell = nl.cell(c);
    // Dff input layout: {d, en, rst} (netlist::Netlist::addDff).
    if (first) {
      bank.en = cell.inputs[1];
      bank.rst = cell.inputs[2];
      first = false;
    } else if (bank.en != cell.inputs[1] || bank.rst != cell.inputs[2]) {
      return std::nullopt;
    }
    bank.ffs.push_back(c);
    bank.d.push_back(cell.inputs[0]);
    bank.q.push_back(cell.output);
    bank.initParity ^= cell.dffInit;
  }
  return bank;
}

/// XOR-folds `bus` down to `w` bits (bit i lands on fold bit i mod w).
Bus foldBus(Builder& b, const Bus& bus, std::uint32_t w) {
  std::vector<Bus> taps(w);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    taps[i % w].push_back(bus[i]);
  }
  Bus out(w);
  for (std::uint32_t j = 0; j < w; ++j) {
    out[j] = taps[j].empty() ? b.constNet(false) : b.reduceXor(taps[j]);
  }
  return out;
}

}  // namespace

std::vector<BankTarget> enumerateBanks(const netlist::Netlist& nl) {
  std::map<std::string, std::size_t> widths;
  std::map<std::string, bool> uniform;
  std::map<std::string, std::pair<NetId, NetId>> ctrl;
  for (netlist::CellId c = 0; c < nl.cellCount(); ++c) {
    const netlist::Cell& cell = nl.cell(c);
    if (cell.type != netlist::CellType::Dff) continue;
    int bit = -1;
    std::string stem(netlist::registerStem(cell.name, bit));
    if (bit < 0) stem = cell.name;  // un-indexed single flip-flop
    const auto key = std::make_pair(cell.inputs[1], cell.inputs[2]);
    auto [it, isNew] = ctrl.try_emplace(stem, key);
    if (isNew) {
      uniform[stem] = true;
      widths[stem] = 0;
    } else if (it->second != key) {
      uniform[stem] = false;
    }
    ++widths[stem];
  }
  std::vector<BankTarget> out;
  for (const auto& [stem, width] : widths) {
    if (width < 1 || !uniform[stem]) continue;
    out.push_back(BankTarget{stem, width});
  }
  return out;
}

std::optional<AppliedTransform> applyTransform(netlist::Netlist& nl,
                                               const TransformSpec& spec,
                                               std::string_view scope) {
  AppliedTransform out;
  out.spec = spec;
  out.id = spec.id();

  // Policy transforms: claims only, no netlist edit (diff is empty, so a
  // candidate carrying only policy edits reloads its whole campaign from
  // the store).
  if (spec.kind == TransformKind::StartupTests) {
    // Boot-time self-test sweep (the same deployment measure as the v2
    // start-up suite): permanent faults in the swept logic fail the
    // power-on pattern before the mission starts.
    out.claims = {
        {spec.target, "logic-stuck",
         fmea::DiagnosticClaim{"cpu-self-test-hw", 0.85}},
        {spec.target, "logic-bridge",
         fmea::DiagnosticClaim{"cpu-self-test-hw", 0.60}},
        {spec.target, "io-stuck",
         fmea::DiagnosticClaim{"io-test-pattern", 0.80}},
    };
    return out;
  }
  if (spec.kind == TransformKind::ScrubRate) {
    out.claims = {
        {spec.target, "mem-soft-error",
         fmea::DiagnosticClaim{"scrubbing", 0.90}},
    };
    return out;
  }

  const std::size_t cellsBefore = nl.cellCount();
  const std::size_t memsBefore = nl.memoryCount();
  Builder b(nl);
  Builder::Scope sc(b, scope);
  std::size_t memBits = 0;

  if (spec.kind == TransformKind::ParityPredict ||
      spec.kind == TransformKind::DuplicateCompare) {
    const std::optional<Bank> bank = resolveBank(nl, spec.target);
    if (!bank) return std::nullopt;
    NetId mismatch = kNoNet;
    if (spec.kind == TransformKind::ParityPredict) {
      // Predicted parity loads alongside the bank (same D parity, same
      // enable/reset) and is compared against the live Q parity.
      const NetId par = b.dff("par", b.reduceXor(bank->d), bank->en,
                              bank->rst, bank->initParity);
      mismatch = b.bxor(par, b.reduceXor(bank->q));
      out.claims = {
          {spec.target, "", fmea::DiagnosticClaim{"bus-parity", 0.60}},
      };
    } else {
      Bus shadow(bank->ffs.size());
      for (std::size_t i = 0; i < bank->ffs.size(); ++i) {
        shadow[i] = b.dff("dup_" + std::to_string(i), bank->d[i], bank->en,
                          bank->rst, nl.cell(bank->ffs[i]).dffInit);
      }
      mismatch = b.reduceOr(b.xorBus(bank->q, shadow));
      // State faults (flips, per-copy output stucks/delays) diverge the two
      // copies and hit the comparator at the norm's "high" ceiling; faults
      // in the shared fan-in cone corrupt both copies identically
      // (common-mode), so the permanent-cone rows are derated.
      out.claims = {
          {spec.target, "logic-seu",
           fmea::DiagnosticClaim{"redundant-checker", 0.99}},
          {spec.target, "logic-set",
           fmea::DiagnosticClaim{"redundant-checker", 0.95}},
          {spec.target, "logic-delay",
           fmea::DiagnosticClaim{"redundant-checker", 0.90}},
          {spec.target, "logic-stuck",
           fmea::DiagnosticClaim{"redundant-checker", 0.85}},
          {spec.target, "logic-bridge",
           fmea::DiagnosticClaim{"redundant-checker", 0.70}},
      };
    }
    const NetId alarm = b.dff("alarm_r", mismatch, kNoNet, bank->rst, false);
    b.output("alarm", alarm);
  } else if (spec.kind == TransformKind::MemSignature) {
    netlist::MemoryId target = netlist::kNoMemory;
    for (netlist::MemoryId m = 0; m < nl.memoryCount(); ++m) {
      if (nl.memory(m).name == spec.target) {
        target = m;
        break;
      }
    }
    if (target == netlist::kNoMemory) return std::nullopt;
    // Copy the port lists: addMemory below may reallocate the memory table.
    const std::uint32_t w = std::min<std::uint32_t>(
        spec.param != 0 ? spec.param : 8, nl.memory(target).dataBits);
    const std::uint32_t addrBits = nl.memory(target).addrBits;
    const Bus mAddr = nl.memory(target).addr;
    const Bus mWdata = nl.memory(target).wdata;
    const Bus mRdata = nl.memory(target).rdata;
    const NetId mWe = nl.memory(target).writeEnable;
    const NetId mRe = nl.memory(target).readEnable;
    if (w == 0) return std::nullopt;

    // Side memory stores the XOR-fold of every written word; on a read the
    // fold of the main array's data must match the stored signature.  An
    // addressing fault in the main array surfaces as a fold mismatch (the
    // side memory, with its own decoder, still reads the right signature);
    // never-written cells read as zero in both arrays, so the compare is
    // quiet until real traffic arrives.
    netlist::MemoryInst sig;
    sig.name = b.qualify("sig");
    sig.addrBits = addrBits;
    sig.dataBits = w;
    sig.addr = mAddr;
    sig.wdata = foldBus(b, mWdata, w);
    sig.writeEnable = mWe;
    sig.readEnable = mRe;
    sig.rdata.resize(w);
    for (std::uint32_t j = 0; j < w; ++j) {
      sig.rdata[j] = nl.addNet(b.qualify("sig_rdata_" + std::to_string(j)));
    }
    nl.addMemory(std::move(sig));
    memBits = (std::size_t{1} << addrBits) * w;

    const Bus readFold = foldBus(b, mRdata, w);
    Bus sigQ(w);
    for (std::uint32_t j = 0; j < w; ++j) {
      sigQ[j] = nl.memory(nl.memoryCount() - 1).rdata[j];
    }
    const NetId mismatch = b.reduceOr(b.xorBus(sigQ, readFold));
    const NetId alarm = b.dff("alarm_r", mismatch, kNoNet, kNoNet, false);
    b.output("alarm", alarm);
    // The side memory runs its own address decoder, so an addressing fault
    // in the main array reads back against the *correct* signature — the
    // same mechanism (and ceiling) as the v2 address-in-code measure.  Data
    // and coupling faults only surface when they land on the fold, hence
    // the derated double-compare claims on those rows.
    out.claims = {
        {spec.target, "mem-addressing",
         fmea::DiagnosticClaim{"addr-in-code", 0.99}},
        {spec.target, "mem-dc-addr",
         fmea::DiagnosticClaim{"addr-in-code", 0.99}},
        {spec.target, "mem-dc-data",
         fmea::DiagnosticClaim{"ram-double-compare", 0.90}},
        {spec.target, "mem-crossover",
         fmea::DiagnosticClaim{"ram-double-compare", 0.90}},
        // A soft error in the main array mismatches the stored signature on
        // the next read of that word — the same double-compare mechanism,
        // derated for reads that never come and for fold aliasing.  This is
        // a transient row, so the campaign validates it (hybrid SFF drops
        // if the measured detection rate falls short).
        {spec.target, "mem-soft-error",
         fmea::DiagnosticClaim{"ram-double-compare", 0.90}},
    };
  } else {
    return std::nullopt;
  }

  // The checker's own hardware announces its faults through the same
  // alarm: a corrupted shadow FF, parity bit or stored signature diverges
  // from the value it predicts and fires the comparator, and the design's
  // chkTest strobe proves the alarm path itself alive at start-up.  One
  // derated scope-wide claim (comparator-output stucks are the latent
  // remainder) keeps the added hardware from dominating the very residual
  // it exists to remove.
  out.claims.push_back({std::string(scope) + "/", "",
                        fmea::DiagnosticClaim{"redundant-checker", 0.90}});

  out.alarmNames.push_back(b.qualify("alarm"));
  out.cellsAdded = nl.cellCount() - cellsBefore;
  out.memsAdded = nl.memoryCount() - memsBefore;
  // Gate-equivalent cost: one per cell, a quarter per signature memory bit
  // (SRAM bits are ~4x denser than standard-cell logic).
  out.gateCost = out.cellsAdded + memBits / 4;
  return out;
}

std::optional<std::vector<AppliedTransform>> applyTransforms(
    netlist::Netlist& nl, const std::vector<TransformSpec>& specs) {
  std::vector<AppliedTransform> out;
  out.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto applied =
        applyTransform(nl, specs[i], "srch" + std::to_string(i));
    if (!applied) return std::nullopt;
    out.push_back(std::move(*applied));
  }
  return out;
}

}  // namespace socfmea::search
