#include "netlist/text_format.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace socfmea::netlist {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream ss(line);
  std::string t;
  while (ss >> t) {
    if (t.front() == '#') break;
    toks.push_back(t);
  }
  return toks;
}

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

class Reader {
 public:
  Netlist run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      ++lineNo_;
      const auto toks = tokenize(line);
      if (toks.empty()) continue;
      statement(toks);
    }
    nl_.check();
    return std::move(nl_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(lineNo_, what);
  }

  NetId netRef(const std::string& name) {
    if (auto id = nl_.findNet(name)) return *id;
    return nl_.addNet(name);
  }

  NetId optNetRef(const std::string& name) {
    if (name == "-") return kNoNet;
    return netRef(name);
  }

  // Parses "key=value" attributes starting at token index `from`.
  std::unordered_map<std::string, std::string> attrs(
      const std::vector<std::string>& toks, std::size_t from) {
    std::unordered_map<std::string, std::string> out;
    for (std::size_t i = from; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      if (eq == std::string::npos) fail("expected key=value, got '" + toks[i] + "'");
      out[toks[i].substr(0, eq)] = toks[i].substr(eq + 1);
    }
    return out;
  }

  void statement(const std::vector<std::string>& toks) {
    const std::string& kw = toks[0];
    if (kw == "design") {
      if (toks.size() != 2) fail("design takes one name");
      nl_.setName(toks[1]);
      return;
    }
    if (kw == "net") {
      if (toks.size() != 2) fail("net takes one name");
      if (nl_.findNet(toks[1])) fail("duplicate net '" + toks[1] + "'");
      nl_.addNet(toks[1]);
      return;
    }
    if (kw == "input") {
      if (toks.size() != 2) fail("input takes one name");
      // A net-preamble file declares the net first; attach the port cell to
      // it (addCell rejects a driven net, so `net x / and g x ... / input x`
      // still fails).  Without a preamble the port creates its net.
      if (const auto id = nl_.findNet(toks[1])) {
        try {
          nl_.addCell(CellType::Input, toks[1] + ".in", {}, *id);
        } catch (const NetlistError& e) {
          fail(e.what());
        }
      } else {
        nl_.addInput(toks[1]);
      }
      return;
    }
    if (kw == "output") {
      if (toks.size() != 3) fail("output takes <portname> <srcnet>");
      nl_.addOutput(toks[1], netRef(toks[2]));
      return;
    }
    if (kw == "dff") {
      if (toks.size() < 4) fail("dff takes <cell> <q> <d> [en= rst= init=]");
      const NetId q = netRef(toks[2]);
      const NetId d = netRef(toks[3]);
      NetId en = kNoNet;
      NetId rst = kNoNet;
      bool init = false;
      for (const auto& [k, v] : attrs(toks, 4)) {
        if (k == "en") {
          en = netRef(v);
        } else if (k == "rst") {
          rst = netRef(v);
        } else if (k == "init") {
          if (v != "0" && v != "1") fail("init must be 0 or 1");
          init = (v == "1");
        } else {
          fail("unknown dff attribute '" + k + "'");
        }
      }
      nl_.addDff(toks[1], d, q, en, rst, init);
      return;
    }
    if (kw == "memory") {
      if (toks.size() < 2) fail("memory takes a name plus attributes");
      MemoryInst m;
      m.name = toks[1];
      for (const auto& [k, v] : attrs(toks, 2)) {
        if (k == "addr") {
          for (const auto& n : splitCommas(v)) m.addr.push_back(netRef(n));
        } else if (k == "wdata") {
          for (const auto& n : splitCommas(v)) m.wdata.push_back(netRef(n));
        } else if (k == "rdata") {
          for (const auto& n : splitCommas(v)) m.rdata.push_back(netRef(n));
        } else if (k == "we") {
          m.writeEnable = netRef(v);
        } else if (k == "re") {
          m.readEnable = netRef(v);
        } else {
          fail("unknown memory attribute '" + k + "'");
        }
      }
      m.addrBits = static_cast<std::uint32_t>(m.addr.size());
      m.dataBits = static_cast<std::uint32_t>(m.wdata.size());
      if (m.writeEnable == kNoNet) fail("memory requires we=<net>");
      try {
        nl_.addMemory(std::move(m));
      } catch (const NetlistError& e) {
        fail(e.what());
      }
      return;
    }
    // Generic gates.
    CellType t;
    if (!cellTypeFromName(kw, t) || !isCombinational(t)) {
      fail("unknown statement '" + kw + "'");
    }
    if (toks.size() < 3) fail("gate takes <cell> <outnet> [inputs...]");
    const NetId out = netRef(toks[2]);
    std::vector<NetId> inputs;
    for (std::size_t i = 3; i < toks.size(); ++i) inputs.push_back(netRef(toks[i]));
    try {
      nl_.addCell(t, toks[1], std::move(inputs), out);
    } catch (const NetlistError& e) {
      fail(e.what());
    }
  }

  Netlist nl_;
  std::size_t lineNo_ = 0;
};

// Name printed for a net in the output.  Anonymous nets get a synthetic name
// so the file round-trips.
std::string netName(const Netlist& nl, NetId id) {
  const Net& n = nl.net(id);
  if (!n.name.empty()) return n.name;
  return "$n" + std::to_string(id);
}

std::string joinNets(const Netlist& nl, const std::vector<NetId>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += netName(nl, v[i]);
  }
  return out;
}

}  // namespace

Netlist readNetlist(std::istream& in) { return Reader{}.run(in); }

Netlist readNetlistString(const std::string& text) {
  std::istringstream ss(text);
  return readNetlist(ss);
}

void writeNetlist(std::ostream& out, const Netlist& nl) {
  out << "design " << nl.name() << "\n";
  // Net preamble in id order, then every cell in id order: the parser
  // re-creates each net and cell at its original id, so id-keyed artifacts
  // (zone databases, compiled-design caches) bind to a round-tripped design
  // unchanged, and write(parse(write(nl))) is a fixed point — the testkit
  // oracle's round-trip arm depends on this.
  for (NetId id = 0; id < nl.netCount(); ++id) {
    out << "net " << netName(nl, id) << "\n";
  }
  for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
    const MemoryInst& mem = nl.memory(m);
    out << "memory " << mem.name << " addr=" << joinNets(nl, mem.addr)
        << " wdata=" << joinNets(nl, mem.wdata)
        << " rdata=" << joinNets(nl, mem.rdata)
        << " we=" << netName(nl, mem.writeEnable);
    if (mem.readEnable != kNoNet) out << " re=" << netName(nl, mem.readEnable);
    out << "\n";
  }
  for (CellId id = 0; id < nl.cellCount(); ++id) {
    const Cell& c = nl.cell(id);
    switch (c.type) {
      case CellType::Input:
        out << "input " << netName(nl, c.output) << "\n";
        break;
      case CellType::Output:
        out << "output " << c.name << " " << netName(nl, c.inputs[0]) << "\n";
        break;
      case CellType::Dff: {
        out << "dff " << c.name << " " << netName(nl, c.output) << " "
            << netName(nl, c.inputs[DffPins::kD]);
        if (c.inputs[DffPins::kEn] != kNoNet) {
          out << " en=" << netName(nl, c.inputs[DffPins::kEn]);
        }
        if (c.inputs[DffPins::kRst] != kNoNet) {
          out << " rst=" << netName(nl, c.inputs[DffPins::kRst]);
        }
        if (c.dffInit) out << " init=1";
        out << "\n";
        break;
      }
      default: {
        out << cellTypeName(c.type) << " " << c.name << " "
            << netName(nl, c.output);
        for (NetId in : c.inputs) out << " " << netName(nl, in);
        out << "\n";
        break;
      }
    }
  }
}

std::string writeNetlistString(const Netlist& nl) {
  std::ostringstream ss;
  writeNetlist(ss, nl);
  return ss.str();
}

}  // namespace socfmea::netlist
