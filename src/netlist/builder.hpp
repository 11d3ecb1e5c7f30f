// RTL-flavoured construction helpers on top of the structural netlist:
// bit-vector buses, boolean algebra, registers, adders, comparators and
// muxes, with hierarchical naming scopes.  The gate-level reference designs
// (Hamming codecs, decoder pipelines, MPU checkers, ...) are generated
// through this builder, standing in for a synthesis tool's output.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace socfmea::netlist {

/// A little-endian bit-vector of nets (index 0 = LSB).
using Bus = std::vector<NetId>;

class Builder {
 public:
  explicit Builder(Netlist& nl) : nl_(nl) {}

  [[nodiscard]] Netlist& netlist() noexcept { return nl_; }

  // ---- hierarchy ----------------------------------------------------------

  /// Enters a named hierarchy level; all subsequent names are prefixed.
  void pushScope(std::string_view name);
  void popScope();
  /// Current hierarchical prefix applied to `name`.
  [[nodiscard]] std::string qualify(std::string_view name) const;

  /// RAII scope helper.
  class Scope {
   public:
    Scope(Builder& b, std::string_view name) : b_(b) { b_.pushScope(name); }
    ~Scope() { b_.popScope(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Builder& b_;
  };

  // ---- scalar gates (each returns the driven net) --------------------------

  NetId gate(CellType type, const std::vector<NetId>& inputs,
             std::string_view hint = {});
  NetId bnot(NetId a);
  NetId bbuf(NetId a);
  NetId band(NetId a, NetId b);
  NetId bor(NetId a, NetId b);
  NetId bnor(NetId a, NetId b);
  NetId bxor(NetId a, NetId b);
  NetId bxnor(NetId a, NetId b);
  /// 2:1 mux: returns a when sel=0, b when sel=1.
  NetId bmux(NetId sel, NetId a, NetId b);
  NetId constNet(bool value);

  // ---- ports --------------------------------------------------------------

  NetId input(std::string_view name);
  Bus inputBus(std::string_view name, std::size_t width);
  void output(std::string_view name, NetId src);
  void outputBus(std::string_view name, const Bus& src);

  // ---- bus algebra ---------------------------------------------------------

  Bus constBus(std::uint64_t value, std::size_t width);
  Bus notBus(const Bus& a);
  Bus xorBus(const Bus& a, const Bus& b);
  /// Per-bit mux of two equal-width buses.
  Bus muxBus(NetId sel, const Bus& a, const Bus& b);

  NetId reduceAnd(const Bus& a);
  NetId reduceOr(const Bus& a);
  /// XOR-tree parity of the bus (balanced tree, like synthesis would build).
  NetId reduceXor(const Bus& a);

  /// Equality comparator a == b (equal widths required).
  NetId equal(const Bus& a, const Bus& b);
  /// Comparator against a constant.
  NetId equalConst(const Bus& a, std::uint64_t value);

  /// Ripple-carry adder; result has the common width; carry-out is dropped
  /// unless `carryOut` is non-null.
  Bus adder(const Bus& a, const Bus& b, NetId cin = kNoNet,
            NetId* carryOut = nullptr);
  /// a + 1 (wraps).
  Bus incrementer(const Bus& a);

  // ---- state --------------------------------------------------------------

  /// Bank of flip-flops named `<name>_<i>`; returns the Q bus.
  Bus registerBus(std::string_view name, const Bus& d, NetId en = kNoNet,
                  NetId rst = kNoNet, std::uint64_t init = 0);
  /// Single flip-flop.
  NetId dff(std::string_view name, NetId d, NetId en = kNoNet,
            NetId rst = kNoNet, bool init = false);

  // ---- misc ---------------------------------------------------------------

  /// One-hot decode: output bit i is (a == i) for i in [0, 1<<width).
  Bus decodeOneHot(const Bus& a);
  /// Select `width` bits starting at `lo`.
  static Bus slice(const Bus& a, std::size_t lo, std::size_t width);
  /// Concatenation (lo bus occupies the low bits).
  static Bus concat(const Bus& lo, const Bus& hi);

 private:
  std::string freshName(std::string_view hint);

  Netlist& nl_;
  std::vector<std::string> scope_;
  /// Anonymous-name counters, one per qualified hint (insertion-stable).
  std::unordered_map<std::string, std::uint64_t> anonCounters_;
};

}  // namespace socfmea::netlist
