#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace socfmea::obs {

Json::Json(unsigned long v) {
  if (v <= static_cast<unsigned long>(std::numeric_limits<std::int64_t>::max())) {
    kind_ = Kind::Int;
    i_ = static_cast<std::int64_t>(v);
  } else {
    kind_ = Kind::Double;
    d_ = static_cast<double>(v);
  }
}

Json::Json(unsigned long long v) {
  if (v <= static_cast<unsigned long long>(
               std::numeric_limits<std::int64_t>::max())) {
    kind_ = Kind::Int;
    i_ = static_cast<std::int64_t>(v);
  } else {
    kind_ = Kind::Double;
    d_ = static_cast<double>(v);
  }
}

Json::Json(double v) {
  if (std::isfinite(v)) {
    kind_ = Kind::Double;
    d_ = v;
  }  // non-finite stays Null: JSON has no NaN/Inf
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

bool Json::asBool() const {
  if (kind_ != Kind::Bool) throw std::logic_error("Json: not a bool");
  return b_;
}

std::int64_t Json::asInt() const {
  if (kind_ != Kind::Int) throw std::logic_error("Json: not an integer");
  return i_;
}

double Json::asDouble() const {
  if (kind_ == Kind::Int) return static_cast<double>(i_);
  if (kind_ != Kind::Double) throw std::logic_error("Json: not a number");
  return d_;
}

const std::string& Json::asString() const {
  if (kind_ != Kind::String) throw std::logic_error("Json: not a string");
  return s_;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw std::logic_error("Json: not an array");
  arr_.push_back(std::move(v));
}

const std::vector<Json>& Json::elements() const {
  if (kind_ != Kind::Array) throw std::logic_error("Json: not an array");
  return arr_;
}

const Json& Json::at(std::size_t i) const { return elements().at(i); }

Json& Json::operator[](std::string_view key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw std::logic_error("Json: not an object");
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(std::string(key), Json());
  return obj_.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::logic_error("Json: no member \"" + std::string(key) + "\"");
  }
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (kind_ != Kind::Object) throw std::logic_error("Json: not an object");
  return obj_;
}

bool Json::erase(std::string_view key) {
  if (kind_ != Kind::Object) return false;
  for (auto it = obj_.begin(); it != obj_.end(); ++it) {
    if (it->first == key) {
      obj_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t Json::size() const noexcept {
  if (kind_ == Kind::Array) return arr_.size();
  if (kind_ == Kind::Object) return obj_.size();
  return 0;
}

bool Json::operator==(const Json& o) const {
  if (isNumber() && o.isNumber()) {
    if (kind_ == Kind::Int && o.kind_ == Kind::Int) return i_ == o.i_;
    return asDouble() == o.asDouble();
  }
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return b_ == o.b_;
    case Kind::Int: return i_ == o.i_;
    case Kind::Double: return d_ == o.d_;
    case Kind::String: return s_ == o.s_;
    case Kind::Array: return arr_ == o.arr_;
    case Kind::Object: return obj_ == o.obj_;
  }
  return false;
}

// ---- serialization ----------------------------------------------------------

std::string jsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out.push_back('"');
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);  // UTF-8 passes through
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void appendNumber(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);  // shortest round-trip representation
}

}  // namespace

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * level, ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += b_ ? "true" : "false"; break;
    case Kind::Int: out += std::to_string(i_); break;
    case Kind::Double: appendNumber(out, d_); break;
    case Kind::String: out += jsonEscape(s_); break;
    case Kind::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        arr_[i].dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Kind::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        out += jsonEscape(obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

void Json::dump(std::ostream& out, int indent) const { out << dump(indent); }

// ---- parsing ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parseDocument() {
    Json v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expectLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
    }
    pos_ += lit.size();
  }

  Json parseValue() {
    skipWs();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
        }
        ++depth_;
        Json v = peek() == '{' ? parseObject() : parseArray();
        --depth_;
        return v;
      }
      case '"': return Json(parseString());
      case 't': expectLiteral("true"); return Json(true);
      case 'f': expectLiteral("false"); return Json(false);
      case 'n': expectLiteral("null"); return Json(nullptr);
      default: return parseNumber();
    }
  }

  Json parseObject() {
    expect('{');
    Json obj = Json::object();
    skipWs();
    if (consume('}')) return obj;
    while (true) {
      skipWs();
      if (peek() != '"') fail("expected object key");
      std::string key = parseString();
      skipWs();
      expect(':');
      obj[key] = parseValue();
      skipWs();
      if (consume(',')) continue;
      expect('}');
      return obj;
    }
  }

  Json parseArray() {
    expect('[');
    Json arr = Json::array();
    skipWs();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parseValue());
      skipWs();
      if (consume(',')) continue;
      expect(']');
      return arr;
    }
  }

  void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parseHex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const std::uint32_t lo = parseHex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid surrogate pair");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t iv = 0;
      const auto res =
          std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(iv);
      }
      // fall through on overflow: represent as double
    }
    double dv = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("unparsable number");
    }
    return Json(dv);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open around pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parseDocument(); }

}  // namespace socfmea::obs
