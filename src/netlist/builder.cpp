#include "netlist/builder.hpp"

#include <cassert>

namespace socfmea::netlist {

void Builder::pushScope(std::string_view name) { scope_.emplace_back(name); }

void Builder::popScope() {
  assert(!scope_.empty());
  scope_.pop_back();
}

std::string Builder::qualify(std::string_view name) const {
  std::string out;
  for (const std::string& s : scope_) {
    out += s;
    out += '/';
  }
  out += name;
  return out;
}

std::string Builder::freshName(std::string_view hint) {
  // One counter per qualified hint, NOT one global counter: the anonymous
  // names must be insertion-stable so that adding cells in one scope does
  // not rename every cell built after it.  The incremental flow identifies
  // cells across architectural iterations by name — a global counter would
  // turn a one-scope edit into a whole-design diff.
  const std::string base = qualify(hint);
  return base + "$" + std::to_string(anonCounters_[base]++);
}

NetId Builder::gate(CellType type, const std::vector<NetId>& inputs,
                    std::string_view hint) {
  const std::string base =
      hint.empty() ? std::string(cellTypeName(type)) : std::string(hint);
  const NetId out = nl_.addNet(freshName(base + "_o"));
  nl_.addCell(type, freshName(base), inputs, out);
  return out;
}

NetId Builder::bnot(NetId a) { return gate(CellType::Not, {a}); }
NetId Builder::bbuf(NetId a) { return gate(CellType::Buf, {a}); }
NetId Builder::band(NetId a, NetId b) { return gate(CellType::And, {a, b}); }
NetId Builder::bor(NetId a, NetId b) { return gate(CellType::Or, {a, b}); }
NetId Builder::bnor(NetId a, NetId b) { return gate(CellType::Nor, {a, b}); }
NetId Builder::bxor(NetId a, NetId b) { return gate(CellType::Xor, {a, b}); }
NetId Builder::bxnor(NetId a, NetId b) { return gate(CellType::Xnor, {a, b}); }

NetId Builder::bmux(NetId sel, NetId a, NetId b) {
  return gate(CellType::Mux2, {sel, a, b});
}

NetId Builder::constNet(bool value) {
  return gate(value ? CellType::Const1 : CellType::Const0, {});
}

NetId Builder::input(std::string_view name) {
  return nl_.addInput(qualify(name));
}

Bus Builder::inputBus(std::string_view name, std::size_t width) {
  Bus b(width);
  for (std::size_t i = 0; i < width; ++i) {
    b[i] = input(std::string(name) + "_" + std::to_string(i));
  }
  return b;
}

void Builder::output(std::string_view name, NetId src) {
  nl_.addOutput(qualify(name), src);
}

void Builder::outputBus(std::string_view name, const Bus& src) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    output(std::string(name) + "_" + std::to_string(i), src[i]);
  }
}

Bus Builder::constBus(std::uint64_t value, std::size_t width) {
  Bus b(width);
  for (std::size_t i = 0; i < width; ++i) {
    b[i] = constNet((value >> i) & 1u);
  }
  return b;
}

Bus Builder::notBus(const Bus& a) {
  Bus b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) b[i] = bnot(a[i]);
  return b;
}

Bus Builder::xorBus(const Bus& a, const Bus& b) {
  assert(a.size() == b.size());
  Bus r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = bxor(a[i], b[i]);
  return r;
}

Bus Builder::muxBus(NetId sel, const Bus& a, const Bus& b) {
  assert(a.size() == b.size());
  Bus r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = bmux(sel, a[i], b[i]);
  return r;
}

namespace {

// Balanced reduction tree, as a technology mapper would produce.
NetId reduceTree(Builder& b, CellType t, std::vector<NetId> v) {
  assert(!v.empty());
  while (v.size() > 1) {
    std::vector<NetId> next;
    next.reserve((v.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      next.push_back(b.gate(t, {v[i], v[i + 1]}));
    }
    if (v.size() % 2 != 0) next.push_back(v.back());
    v = std::move(next);
  }
  return v.front();
}

}  // namespace

NetId Builder::reduceAnd(const Bus& a) {
  if (a.size() == 1) return a[0];
  return reduceTree(*this, CellType::And, a);
}

NetId Builder::reduceOr(const Bus& a) {
  if (a.size() == 1) return a[0];
  return reduceTree(*this, CellType::Or, a);
}

NetId Builder::reduceXor(const Bus& a) {
  if (a.size() == 1) return a[0];
  return reduceTree(*this, CellType::Xor, a);
}

NetId Builder::equal(const Bus& a, const Bus& b) {
  assert(a.size() == b.size());
  Bus eq(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) eq[i] = bxnor(a[i], b[i]);
  return reduceAnd(eq);
}

NetId Builder::equalConst(const Bus& a, std::uint64_t value) {
  Bus lits(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    lits[i] = ((value >> i) & 1u) ? a[i] : bnot(a[i]);
  }
  return reduceAnd(lits);
}

Bus Builder::adder(const Bus& a, const Bus& b, NetId cin, NetId* carryOut) {
  assert(a.size() == b.size());
  Bus sum(a.size());
  NetId carry = (cin == kNoNet) ? constNet(false) : cin;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetId axb = bxor(a[i], b[i]);
    sum[i] = bxor(axb, carry);
    const NetId g = band(a[i], b[i]);
    const NetId p = band(axb, carry);
    carry = bor(g, p);
  }
  if (carryOut != nullptr) *carryOut = carry;
  return sum;
}

Bus Builder::incrementer(const Bus& a) {
  Bus sum(a.size());
  NetId carry = constNet(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum[i] = bxor(a[i], carry);
    carry = band(a[i], carry);
  }
  return sum;
}

Bus Builder::registerBus(std::string_view name, const Bus& d, NetId en,
                         NetId rst, std::uint64_t init) {
  Bus q(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    q[i] = dff(std::string(name) + "_" + std::to_string(i), d[i], en, rst,
               (init >> i) & 1u);
  }
  return q;
}

NetId Builder::dff(std::string_view name, NetId d, NetId en, NetId rst,
                   bool init) {
  const NetId q = nl_.addNet(qualify(std::string(name) + "_q"));
  nl_.addDff(qualify(name), d, q, en, rst, init);
  return q;
}

Bus Builder::decodeOneHot(const Bus& a) {
  const std::size_t n = std::size_t{1} << a.size();
  Bus out(n);
  for (std::size_t v = 0; v < n; ++v) out[v] = equalConst(a, v);
  return out;
}

Bus Builder::slice(const Bus& a, std::size_t lo, std::size_t width) {
  assert(lo + width <= a.size());
  return Bus(a.begin() + static_cast<std::ptrdiff_t>(lo),
             a.begin() + static_cast<std::ptrdiff_t>(lo + width));
}

Bus Builder::concat(const Bus& lo, const Bus& hi) {
  Bus out = lo;
  out.insert(out.end(), hi.begin(), hi.end());
  return out;
}

}  // namespace socfmea::netlist
