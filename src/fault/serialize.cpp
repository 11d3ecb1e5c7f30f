#include "fault/serialize.hpp"

#include <array>

namespace socfmea::fault {

namespace {

constexpr std::array<FaultKind, 14> kAllKinds = {
    FaultKind::StuckAt0,     FaultKind::StuckAt1,     FaultKind::SeuFlip,
    FaultKind::SetPulse,     FaultKind::BridgeAnd,    FaultKind::BridgeOr,
    FaultKind::DelayStale,   FaultKind::MemStuckBit,  FaultKind::MemAddrNone,
    FaultKind::MemAddrWrong, FaultKind::MemAddrMulti, FaultKind::MemCoupling,
    FaultKind::MemSoftError, FaultKind::MultiSeu,
};

std::optional<netlist::MemoryId> findMemory(const netlist::Netlist& nl,
                                            std::string_view name) {
  for (netlist::MemoryId m = 0; m < nl.memoryCount(); ++m) {
    if (nl.memory(m).name == name) return m;
  }
  return std::nullopt;
}

}  // namespace

std::string netRef(const netlist::Netlist& nl, netlist::NetId id) {
  if (id == netlist::kNoNet) return "-";
  const netlist::Net& net = nl.net(id);
  if (!net.name.empty()) return net.name;
  if (net.driver != netlist::kNoCell) return "@c:" + nl.cell(net.driver).name;
  if (net.memDriver != netlist::kNoMemory) {
    const netlist::MemoryInst& mem = nl.memory(net.memDriver);
    for (std::size_t b = 0; b < mem.rdata.size(); ++b) {
      if (mem.rdata[b] == id) {
        return "@m:" + mem.name + ":" + std::to_string(b);
      }
    }
  }
  return "@u:" + std::to_string(id);
}

std::optional<netlist::NetId> resolveNetRef(const netlist::Netlist& nl,
                                            std::string_view ref) {
  if (ref.empty() || ref == "-") return std::nullopt;
  if (ref.rfind("@c:", 0) == 0) {
    const auto c = nl.findCell(ref.substr(3));
    if (!c) return std::nullopt;
    const netlist::NetId out = nl.cell(*c).output;
    return out == netlist::kNoNet ? std::nullopt
                                  : std::optional<netlist::NetId>(out);
  }
  if (ref.rfind("@m:", 0) == 0) {
    const std::string_view body = ref.substr(3);
    const std::size_t colon = body.rfind(':');
    if (colon == std::string_view::npos) return std::nullopt;
    const auto m = findMemory(nl, body.substr(0, colon));
    if (!m) return std::nullopt;
    const netlist::MemoryInst& mem = nl.memory(*m);
    std::size_t bit = 0;
    for (const char c : body.substr(colon + 1)) {
      if (c < '0' || c > '9') return std::nullopt;
      bit = bit * 10 + static_cast<std::size_t>(c - '0');
    }
    if (bit >= mem.rdata.size()) return std::nullopt;
    return mem.rdata[bit];
  }
  return nl.findNet(ref);
}

std::string faultKey(const netlist::Netlist& nl, const Fault& f) {
  std::string key(faultKindName(f.kind));
  const auto add = [&key](const std::string& part) {
    key += '/';
    key += part;
  };
  switch (f.kind) {
    case FaultKind::SeuFlip:
    case FaultKind::DelayStale:
      add(f.cell != netlist::kNoCell ? nl.cell(f.cell).name : "-");
      break;
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::SetPulse:
      add(f.cell != netlist::kNoCell ? "@c:" + nl.cell(f.cell).name
                                     : netRef(nl, f.net));
      break;
    case FaultKind::BridgeAnd:
    case FaultKind::BridgeOr:
      add(netRef(nl, f.net));
      add(netRef(nl, f.net2));
      break;
    case FaultKind::MemStuckBit:
    case FaultKind::MemAddrNone:
    case FaultKind::MemAddrWrong:
    case FaultKind::MemAddrMulti:
    case FaultKind::MemCoupling:
    case FaultKind::MemSoftError:
      add(f.mem < nl.memoryCount() ? nl.memory(f.mem).name : "-");
      break;
    case FaultKind::MultiSeu: {
      // Name-based so the key survives cell renumbering, exactly like the
      // single-cell kinds above; '+'-joined in the fault's (sorted) cell
      // order.
      std::string joined;
      for (const netlist::CellId c : f.cells) {
        if (!joined.empty()) joined += '+';
        joined += c != netlist::kNoCell ? nl.cell(c).name : "-";
      }
      add(joined.empty() ? "-" : joined);
      break;
    }
  }
  key += "/a" + std::to_string(f.addr);
  key += "/a2" + std::to_string(f.addr2);
  key += "/b" + std::to_string(f.bit);
  key += f.stuckValue ? "/v1" : "/v0";
  key += "/t" + std::to_string(f.cycle);
  return key;
}

std::optional<FaultKind> faultKindFromName(std::string_view n) {
  for (const FaultKind k : kAllKinds) {
    if (faultKindName(k) == n) return k;
  }
  return std::nullopt;
}

obs::Json faultToJson(const netlist::Netlist& nl, const Fault& f) {
  obs::Json j = obs::Json::object();
  j["kind"] = std::string(faultKindName(f.kind));
  if (f.net != netlist::kNoNet) j["net"] = netRef(nl, f.net);
  if (f.net2 != netlist::kNoNet) j["net2"] = netRef(nl, f.net2);
  if (f.cell != netlist::kNoCell) j["cell"] = nl.cell(f.cell).name;
  if (f.kind >= FaultKind::MemStuckBit && f.kind <= FaultKind::MemSoftError &&
      f.mem < nl.memoryCount()) {
    j["mem"] = nl.memory(f.mem).name;
  }
  if (!f.cells.empty()) {
    obs::Json cells = obs::Json::array();
    for (const netlist::CellId c : f.cells) cells.push_back(nl.cell(c).name);
    j["cells"] = std::move(cells);
  }
  j["addr"] = static_cast<long long>(f.addr);
  j["addr2"] = static_cast<long long>(f.addr2);
  j["bit"] = f.bit;
  j["stuck_value"] = f.stuckValue;
  j["cycle"] = static_cast<long long>(f.cycle);
  return j;
}

std::optional<Fault> faultFromJson(const netlist::Netlist& nl,
                                   const obs::Json& j) {
  const obs::Json* kindJ = j.find("kind");
  if (kindJ == nullptr || !kindJ->isString()) return std::nullopt;
  const auto kind = faultKindFromName(kindJ->asString());
  if (!kind) return std::nullopt;

  Fault f;
  f.kind = *kind;
  if (const obs::Json* n = j.find("net")) {
    const auto id = resolveNetRef(nl, n->asString());
    if (!id) return std::nullopt;
    f.net = *id;
  }
  if (const obs::Json* n = j.find("net2")) {
    const auto id = resolveNetRef(nl, n->asString());
    if (!id) return std::nullopt;
    f.net2 = *id;
  }
  if (const obs::Json* c = j.find("cell")) {
    const auto id = nl.findCell(c->asString());
    if (!id) return std::nullopt;
    f.cell = *id;
  }
  if (const obs::Json* m = j.find("mem")) {
    const auto id = findMemory(nl, m->asString());
    if (!id) return std::nullopt;
    f.mem = *id;
  }
  if (const obs::Json* v = j.find("addr")) {
    f.addr = static_cast<std::uint64_t>(v->asInt());
  }
  if (const obs::Json* v = j.find("addr2")) {
    f.addr2 = static_cast<std::uint64_t>(v->asInt());
  }
  if (const obs::Json* v = j.find("bit")) {
    f.bit = static_cast<std::uint32_t>(v->asInt());
  }
  if (const obs::Json* v = j.find("stuck_value")) f.stuckValue = v->asBool();
  if (const obs::Json* v = j.find("cycle")) {
    f.cycle = static_cast<std::uint64_t>(v->asInt());
  }
  if (const obs::Json* v = j.find("cells")) {
    for (std::size_t i = 0; i < v->size(); ++i) {
      const auto id = nl.findCell(v->at(i).asString());
      if (!id) return std::nullopt;
      f.cells.push_back(*id);
    }
  }
  return f;
}

}  // namespace socfmea::fault
