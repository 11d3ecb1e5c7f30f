// Dependency-free JSON document model: the one schema shared by every
// machine-readable artefact of the flow (FMEA sheets, campaign results,
// telemetry dumps, bench headline numbers, the CI-gated safety report).
//
// Design points:
//   * objects keep insertion order, so reports diff cleanly run-to-run;
//   * integers are stored exactly (std::int64_t) and doubles are emitted
//     with shortest-round-trip formatting, so a parse(dump(x)) round trip
//     is lossless;
//   * JSON has no NaN/Inf — non-finite doubles serialize as null (and the
//     Json(double) constructor produces Null), which is the documented
//     contract for telemetry gauges that may divide by zero;
//   * parse() accepts strict JSON (RFC 8259), including \uXXXX escapes and
//     surrogate pairs, and throws std::runtime_error with an offset on
//     malformed input.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace socfmea::obs {

class Json {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Int,     ///< exact integer (std::int64_t)
    Double,  ///< finite double (non-finite collapses to Null)
    String,
    Array,
    Object,
  };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool v) : kind_(Kind::Bool), b_(v) {}
  Json(int v) : kind_(Kind::Int), i_(v) {}
  Json(unsigned v) : kind_(Kind::Int), i_(v) {}
  Json(long v) : kind_(Kind::Int), i_(v) {}
  Json(long long v) : kind_(Kind::Int), i_(v) {}
  /// Values above INT64_MAX fall back to the nearest double.
  Json(unsigned long v);
  Json(unsigned long long v);
  Json(double v);
  Json(const char* s) : kind_(Kind::String), s_(s) {}
  Json(std::string s) : kind_(Kind::String), s_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::String), s_(s) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool isNull() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool isInt() const noexcept { return kind_ == Kind::Int; }
  [[nodiscard]] bool isString() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::logic_error on a kind mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] std::int64_t asInt() const;   ///< Int only
  [[nodiscard]] double asDouble() const;      ///< Int or Double
  [[nodiscard]] const std::string& asString() const;

  // ---- arrays ---------------------------------------------------------------

  /// Appends to an array (a Null value silently becomes an empty array).
  void push_back(Json v);
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] const Json& at(std::size_t i) const;

  // ---- objects (insertion-ordered) ------------------------------------------

  /// Member access; inserts Null under `key` when absent.  A Null value
  /// silently becomes an empty object, so `j["a"]["b"] = 1` just works.
  Json& operator[](std::string_view key);
  /// Lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;
  /// Removes a member; false when absent.
  bool erase(std::string_view key);

  /// Array length or object member count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Deep structural equality.  Int and Double compare by numeric value, so
  /// a round-tripped document equals its source.
  [[nodiscard]] bool operator==(const Json& o) const;

  // ---- serialization --------------------------------------------------------

  /// indent = 0 emits compact one-line JSON; indent > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;
  void dump(std::ostream& out, int indent = 0) const;

  /// Deepest nesting of arrays and objects parse() accepts.  The parser
  /// recurses once per level, so the bound keeps a hostile file from
  /// overflowing the stack; every report the tools write stays far below it.
  static constexpr std::size_t kMaxDepth = 512;

  /// Strict parser; throws std::runtime_error naming the byte offset, also
  /// for a document nested deeper than kMaxDepth.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool b_ = false;
  std::int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Escapes a raw string into a JSON string literal (with quotes).
[[nodiscard]] std::string jsonEscape(std::string_view raw);

}  // namespace socfmea::obs
