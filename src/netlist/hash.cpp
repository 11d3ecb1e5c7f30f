#include "netlist/hash.hpp"

namespace socfmea::netlist {

std::uint64_t hashString(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001B3ull;
  }
  return h;
}

std::uint64_t hashNetlist(const Netlist& nl) {
  std::uint64_t h = hashString(nl.name());
  h = hashMix(h, nl.netCount());
  for (NetId n = 0; n < nl.netCount(); ++n) {
    h = hashMix(h, hashString(nl.net(n).name));
  }
  h = hashMix(h, nl.cellCount());
  for (CellId c = 0; c < nl.cellCount(); ++c) {
    const Cell& cell = nl.cell(c);
    h = hashMix(h, static_cast<std::uint64_t>(cell.type));
    h = hashMix(h, hashString(cell.name));
    h = hashMix(h, cell.inputs.size());
    for (const NetId in : cell.inputs) h = hashMix(h, in);
    h = hashMix(h, cell.output);
    h = hashMix(h, cell.dffInit ? 1 : 0);
  }
  h = hashMix(h, nl.memoryCount());
  for (MemoryId m = 0; m < nl.memoryCount(); ++m) {
    const MemoryInst& mem = nl.memory(m);
    h = hashMix(h, hashString(mem.name));
    h = hashMix(h, mem.addrBits);
    h = hashMix(h, mem.dataBits);
    for (const NetId n : mem.addr) h = hashMix(h, n);
    for (const NetId n : mem.wdata) h = hashMix(h, n);
    for (const NetId n : mem.rdata) h = hashMix(h, n);
    h = hashMix(h, mem.writeEnable);
    h = hashMix(h, mem.readEnable);
  }
  return h;
}

std::string hashHex(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace socfmea::netlist
