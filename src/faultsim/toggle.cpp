#include "faultsim/toggle.hpp"

#include <ostream>
#include <span>

#include "netlist/levelize.hpp"

namespace socfmea::faultsim {

namespace {

// Constant-propagation lattice: Top (optimistic, "maybe constant"), C0/C1,
// Varying (bottom).
enum class CV : std::uint8_t { Top, C0, C1, Varying };

CV cvConst(bool v) { return v ? CV::C1 : CV::C0; }

}  // namespace

std::vector<bool> structurallyConstantNets(const netlist::Netlist& nl) {
  using netlist::Cell;
  using netlist::CellId;
  using netlist::CellType;
  using netlist::DffPins;
  using netlist::kNoNet;

  std::vector<CV> val(nl.netCount(), CV::Top);
  // Sources of variation: primary inputs and memory read data.
  for (CellId id = 0; id < nl.cellCount(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::Input) val[c.output] = CV::Varying;
  }
  for (const auto& m : nl.memories()) {
    for (netlist::NetId r : m.rdata) val[r] = CV::Varying;
  }

  const auto lev = netlist::levelize(nl);
  bool changed = true;
  for (int pass = 0; pass < 64 && changed; ++pass) {
    changed = false;
    const auto lower = [&](netlist::NetId n, CV v) {
      if (v == CV::Top) return;  // never raise back toward optimistic
      if (val[n] == v || val[n] == CV::Varying) return;
      // Monotone lowering only: Top -> C0/C1 -> Varying.
      if (val[n] == CV::Top || v == CV::Varying) {
        val[n] = v;
        changed = true;
      } else if (val[n] != v) {  // C0 vs C1 conflict across passes
        val[n] = CV::Varying;
        changed = true;
      }
    };

    // Sequential transfer first (loops settle over passes).
    for (CellId id = 0; id < nl.cellCount(); ++id) {
      const Cell& c = nl.cell(id);
      if (c.type != CellType::Dff) continue;
      const CV d = val[c.inputs[DffPins::kD]];
      const netlist::NetId enNet = c.inputs[DffPins::kEn];
      const CV en = enNet == kNoNet ? CV::C1 : val[enNet];
      const CV init = cvConst(c.dffInit);
      CV q;
      if (en == CV::C0) {
        q = init;  // never captures: holds the reset image
      } else if (d == init || d == CV::Top) {
        q = init;  // captures its own init value (or an optimistic loop)
      } else if (en == CV::Top) {
        q = CV::Top;  // enable unresolved: defer — Varying is irreversible
      } else {
        q = CV::Varying;
      }
      lower(c.output, q);
    }

    for (CellId id : lev.order) {
      const Cell& c = nl.cell(id);
      CV out = CV::Top;
      switch (c.type) {
        case CellType::Const0: out = CV::C0; break;
        case CellType::Const1: out = CV::C1; break;
        case CellType::Buf: out = val[c.inputs[0]]; break;
        case CellType::Not: {
          const CV a = val[c.inputs[0]];
          out = a == CV::C0 ? CV::C1 : a == CV::C1 ? CV::C0 : a;
          break;
        }
        case CellType::And:
        case CellType::Nand: {
          bool anyVar = false;
          bool anyTop = false;
          bool any0 = false;
          bool all1 = true;
          for (netlist::NetId in : c.inputs) {
            const CV v = val[in];
            if (v == CV::C0) any0 = true;
            if (v != CV::C1) all1 = false;
            if (v == CV::Varying) anyVar = true;
            if (v == CV::Top) anyTop = true;
          }
          out = any0 ? CV::C0
                     : all1 ? CV::C1 : anyTop ? CV::Top
                                              : anyVar ? CV::Varying : CV::Top;
          if (c.type == CellType::Nand) {
            out = out == CV::C0 ? CV::C1 : out == CV::C1 ? CV::C0 : out;
          }
          break;
        }
        case CellType::Or:
        case CellType::Nor: {
          bool anyVar = false;
          bool anyTop = false;
          bool any1 = false;
          bool all0 = true;
          for (netlist::NetId in : c.inputs) {
            const CV v = val[in];
            if (v == CV::C1) any1 = true;
            if (v != CV::C0) all0 = false;
            if (v == CV::Varying) anyVar = true;
            if (v == CV::Top) anyTop = true;
          }
          out = any1 ? CV::C1
                     : all0 ? CV::C0 : anyTop ? CV::Top
                                              : anyVar ? CV::Varying : CV::Top;
          if (c.type == CellType::Nor) {
            out = out == CV::C0 ? CV::C1 : out == CV::C1 ? CV::C0 : out;
          }
          break;
        }
        case CellType::Xor:
        case CellType::Xnor: {
          bool anyVar = false;
          bool anyTop = false;
          bool acc = c.type == CellType::Xnor;
          for (netlist::NetId in : c.inputs) {
            const CV v = val[in];
            if (v == CV::Varying) anyVar = true;
            if (v == CV::Top) anyTop = true;
            if (v == CV::C1) acc = !acc;
          }
          out = anyVar ? CV::Varying : anyTop ? CV::Top : cvConst(acc);
          break;
        }
        case CellType::Mux2: {
          const CV sel = val[c.inputs[0]];
          const CV a = val[c.inputs[1]];
          const CV bb = val[c.inputs[2]];
          if (sel == CV::C0) {
            out = a;
          } else if (sel == CV::C1) {
            out = bb;
          } else if (a == bb) {
            out = a;
          } else {
            out = sel == CV::Top && (a == CV::Top || bb == CV::Top)
                      ? CV::Top
                      : CV::Varying;
          }
          break;
        }
        default:
          continue;
      }
      lower(c.output, out);
    }
  }

  std::vector<bool> constant(nl.netCount(), false);
  for (netlist::NetId n = 0; n < nl.netCount(); ++n) {
    constant[n] = val[n] != CV::Varying;  // Top at fixpoint = loop constant
  }
  return constant;
}

ToggleCoverage measureToggle(const GoldenRun& golden) {
  const netlist::Netlist& nl = golden.compiled()->design();
  const std::size_t words = golden.rowWords();
  // A rise is a 0 followed by a 1, a fall a 1 followed by a 0; row 0
  // follows nothing.
  std::vector<std::uint64_t> rise(words, 0);
  std::vector<std::uint64_t> fall(words, 0);
  for (std::uint64_t c = 1; c < golden.cycles(); ++c) {
    const std::span<const std::uint64_t> prev = golden.row(c - 1).words;
    const std::span<const std::uint64_t> cur = golden.row(c).words;
    for (std::size_t w = 0; w < words; ++w) {
      rise[w] |= ~prev[w] & cur[w];
      fall[w] |= prev[w] & ~cur[w];
    }
  }
  const NetBits sawRise{rise};
  const NetBits sawFall{fall};

  const std::vector<bool> constant = structurallyConstantNets(nl);
  ToggleCoverage tc;
  for (netlist::NetId n = 0; n < nl.netCount(); ++n) {
    // Structurally constant nets cannot toggle; exclude them.
    if (constant[n]) continue;
    ++tc.nets;
    const bool once = sawRise[n] || sawFall[n];
    if (once) ++tc.toggledOnce;
    if (sawRise[n] && sawFall[n]) ++tc.toggledBoth;
    if (!once) tc.untoggled.push_back(n);
  }
  return tc;
}

void printToggle(std::ostream& out, const netlist::Netlist& nl,
                 const ToggleCoverage& tc, std::size_t maxUntoggled) {
  out << "toggle coverage: " << tc.toggledOnce << "/" << tc.nets
      << " nets toggled at least once (" << tc.onceFraction() * 100.0
      << "%), both edges: " << tc.bothFraction() * 100.0 << "%\n";
  for (std::size_t i = 0; i < tc.untoggled.size() && i < maxUntoggled; ++i) {
    const auto& net = nl.net(tc.untoggled[i]);
    out << "  untoggled: "
        << (net.name.empty() ? ("#" + std::to_string(tc.untoggled[i]))
                             : net.name)
        << "\n";
  }
}

}  // namespace socfmea::faultsim
