#ifndef MEDSYNC_COMMON_JSON_H_
#define MEDSYNC_COMMON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace medsync {

/// A small self-contained JSON value type, parser, and writer.
///
/// JSON is the project's interchange format: smart-contract call payloads and
/// events, serialized lens specifications exchanged between sharing peers,
/// and network message bodies are all Json values. Object keys are kept in
/// sorted order (std::map) so serialization is canonical — two structurally
/// equal values always produce byte-identical text, which matters because
/// transaction payloads are hashed and signed.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Null by default.
  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(int value) : type_(Type::kInt), int_(value) {}
  Json(int64_t value) : type_(Type::kInt), int_(value) {}
  Json(uint64_t value) : type_(Type::kInt), int_(static_cast<int64_t>(value)) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(std::string_view value) : type_(Type::kString), string_(value) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error checked
  /// by assert. Use the Get* helpers below for fallible access.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;  // accepts int values too
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Object field access. `Has` returns false for non-objects.
  bool Has(std::string_view key) const;

  /// Returns the field or a shared null value for missing keys/non-objects.
  const Json& At(std::string_view key) const;

  /// Inserts or overwrites a field; converts this value to an object if null.
  Json& Set(std::string_view key, Json value);

  /// Appends to an array; converts this value to an array if null.
  Json& Append(Json value);

  size_t size() const;

  /// Fallible typed field lookup used pervasively when decoding payloads.
  Result<bool> GetBool(std::string_view key) const;
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;

  /// Serializes to compact canonical JSON.
  std::string Dump() const;

  /// Length of Dump() without building the string — for byte accounting
  /// (e.g. network payload sizes) where serializing just to measure would
  /// double the work.
  size_t SerializedSize() const;

  /// Serializes with two-space indentation (for traces and examples).
  std::string DumpPretty() const;

  /// The compact scalar encoders Dump() is built from, for callers that
  /// stream canonical JSON without building a tree (the relational row
  /// digest). Each appends exactly the bytes Dump() writes for a Json
  /// holding that value.
  static void AppendInt(std::string* out, int64_t value);
  static void AppendDouble(std::string* out, double value);
  static void AppendString(std::string* out, std::string_view value);

  /// Parser limits. The default depth matches trusted inputs (our own
  /// checkpoints, CLI files); the wire path tightens it — a hostile peer
  /// must not be able to wind the recursive-descent parser 256 frames deep.
  struct ParseLimits {
    int max_depth = 256;
  };

  /// Parses `text`; returns InvalidArgument with position info on error.
  /// Strict JSON: rejects unpaired UTF-16 surrogates, truncated `\uXXXX`
  /// escapes, unterminated strings, and non-grammar numbers ("+5", ".5",
  /// "1.", "01").
  static Result<Json> Parse(std::string_view text);

  /// Parse() for bytes that crossed a trust boundary (the socket
  /// transport's frame payloads): a tighter nesting-depth default and
  /// every malformation reported as Corruption — the stream, not the
  /// caller, is at fault.
  static Result<Json> ParseWire(std::string_view text,
                                const ParseLimits& limits = {.max_depth = 64});

  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace medsync

#endif  // MEDSYNC_COMMON_JSON_H_
