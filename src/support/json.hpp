// Minimal JSON: the escape helper, a small recursive-descent parser,
// and the record codec behind every record the system serialises.
//
// Decisions, certificates, fault plans, journal outcomes, cache entries
// and daemon requests leave the process as JSON and are read back. Each
// record declares its members once, as a file-local field list in its
// own .cpp, and derives json(), from_json() and from_json_value() from
// it with CUDANP_JSON_RECORD / CUDANP_JSON_NESTED_RECORD:
//
//   constexpr auto kFields = std::tuple{
//       json::field("kernel", &VariantFailure::kernel),
//       json::field("cause", &VariantFailure::cause,
//                   failure_cause_from_string)};
//   CUDANP_JSON_NESTED_RECORD(VariantFailure, kFields)
//
// so the reader cannot drift from the writer. Each enum's slugs live in
// one table that its to_string and *_from_string are derived from. The
// bytes of every record are pinned by tests/golden/records.txt. The
// parser accepts standard JSON and is sized for reports, not gigabyte
// documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace cudanp::json {

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes, \n \t \r, and \u00xx for remaining control bytes.
/// Exactly the escaping every json() emitter in the repo uses.
[[nodiscard]] std::string escape(const std::string& s);

/// escape(s), appended to `out`.
void escape_into(std::string& out, std::string_view s);

/// Reverses escape(): returns nullopt on a malformed escape sequence.
[[nodiscard]] std::optional<std::string> unescape(std::string_view s);

class Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// One parsed JSON value. Numbers keep both an integer and a double
/// view. The integer view of a non-integral or out-of-range number is
/// the double truncated toward zero and saturated to the int64 range
/// (NaN reads as 0).
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Value() = default;
  [[nodiscard]] Kind kind() const { return kind_; }

  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the default is returned on a kind mismatch so
  /// report parsers can be written as straight-line field reads.
  [[nodiscard]] bool as_bool(bool def = false) const {
    return is_bool() ? bool_ : def;
  }
  [[nodiscard]] std::int64_t as_i64(std::int64_t def = 0) const {
    return is_number() ? i64_ : def;
  }
  [[nodiscard]] double as_double(double def = 0.0) const {
    return is_number() ? num_ : def;
  }
  [[nodiscard]] const std::string& as_str() const { return str_; }

  [[nodiscard]] const Array& arr() const { return arr_; }
  [[nodiscard]] const Object& obj() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Convenience field reads straight off an object.
  [[nodiscard]] bool get_bool(std::string_view key, bool def = false) const;
  [[nodiscard]] std::int64_t get_i64(std::string_view key,
                                     std::int64_t def = 0) const;
  [[nodiscard]] std::string get_str(std::string_view key,
                                    const std::string& def = {}) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double def = 0.0) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(std::int64_t i);
  static Value make_double(double d);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t i64_ = 0;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when `error` is
/// non-null, a byte-offset diagnostic.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

// ---- Record codec --------------------------------------------------------

/// An enum's slugs: `constexpr std::pair<E, const char*> kSlugs[] = {...}`.
/// slug_name / slug_parse derive its to_string and *_from_string.
template <class E, std::size_t N>
constexpr const char* slug_name(const std::pair<E, const char*> (&slugs)[N],
                                E e) {
  for (const auto& [v, slug] : slugs)
    if (v == e) return slug;
  return "unknown";
}

template <class E, std::size_t N>
constexpr std::optional<E> slug_parse(
    const std::pair<E, const char*> (&slugs)[N], std::string_view s) {
  for (const auto& [v, slug] : slugs)
    if (s == slug) return v;
  return std::nullopt;
}

/// One member of a record: its key and where it lives. Members may be
/// bool, integers, double, std::string, an enum (written through its
/// to_string, read back through the slug parser `parse`), a nested
/// record (a type with json() and from_json_value()), or a std::vector
/// of strings or nested records.
template <class C, class M, class Parse = std::nullptr_t>
struct Field {
  std::string_view key;
  M C::*member;
  Parse parse = nullptr;
};

template <class C, class M, class... Parse>
constexpr auto field(std::string_view key, M C::*member, Parse... parse) {
  return Field<C, M, Parse...>{key, member, parse...};
}

namespace detail {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Precision 17: every double reads back exactly.
void append_double(std::string& out, double d);

template <class T>
void put(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += '"';
    escape_into(out, v);
    out += '"';
  } else if constexpr (std::is_enum_v<T>) {
    out += '"';
    out += to_string(v);
    out += '"';
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(out, v);
  } else if constexpr (std::is_unsigned_v<T>) {
    out += std::to_string(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    out += std::to_string(static_cast<std::int64_t>(v));
  } else if constexpr (kIsVector<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ',';
      put(out, v[i]);
    }
    out += ']';
  } else {
    out += v.json();
  }
}

/// Reads a present member. A scalar of the wrong kind keeps its default;
/// a malformed list or nested record fails the record.
template <class T>
bool get(const Value& v, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v.is_bool()) out = v.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (v.is_string()) out = v.as_str();
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (v.is_number())
      out = std::is_floating_point_v<T> ? static_cast<T>(v.as_double())
                                        : static_cast<T>(v.as_i64());
  } else if constexpr (kIsVector<T>) {
    if (!v.is_array()) return false;
    for (const Value& item : v.arr()) {
      typename T::value_type x{};
      if constexpr (std::is_same_v<decltype(x), std::string>) {
        if (!item.is_string()) return false;
      }
      if (!get(item, x)) return false;
      out.push_back(std::move(x));
    }
  } else {
    auto r = T::from_json_value(v);
    if (!r) return false;
    out = std::move(*r);
  }
  return true;
}

}  // namespace detail

/// `{"key":value,...}` in field-list order.
template <class C, class... F>
[[nodiscard]] std::string write_record(const C& x,
                                       const std::tuple<F...>& fields) {
  std::string out = "{";
  auto write = [&](const auto& f) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += f.key;
    out += "\":";
    detail::put(out, x.*f.member);
  };
  std::apply([&](const auto&... f) { (write(f), ...); }, fields);
  out += '}';
  return out;
}

/// Reads a write_record() object; nullopt when `v` is not an object or a
/// member fails to read. A missing member keeps its default initialiser,
/// except an enum: a missing or unknown slug fails the record.
template <class C, class... F>
[[nodiscard]] std::optional<C> read_record(const Value& v,
                                           const std::tuple<F...>& fields) {
  if (!v.is_object()) return std::nullopt;
  C x{};
  auto read = [&](const auto& f) {
    const Value* m = v.find(f.key);
    using M = std::remove_cvref_t<decltype(x.*f.member)>;
    if constexpr (std::is_enum_v<M>) {
      auto e = f.parse(m && m->is_string() ? std::string_view(m->as_str())
                                           : std::string_view());
      if (e) x.*f.member = *e;
      return e.has_value();
    } else {
      return !m || detail::get(*m, x.*f.member);
    }
  };
  if (!std::apply([&](const auto&... f) { return (read(f) && ...); }, fields))
    return std::nullopt;
  return x;
}

/// parse() then read_record().
template <class C, class... F>
[[nodiscard]] std::optional<C> parse_record(std::string_view text,
                                            const std::tuple<F...>& fields) {
  auto v = parse(text);
  if (!v) return std::nullopt;
  return read_record<C>(*v, fields);
}

}  // namespace cudanp::json

/// Defines T::json() and T::from_json() from the field list `fields`;
/// the NESTED form also defines T::from_json_value() for records that
/// are read back as members of other records.
#define CUDANP_JSON_RECORD(T, fields)                                   \
  std::string T::json() const {                                        \
    return ::cudanp::json::write_record(*this, fields);                \
  }                                                                    \
  std::optional<T> T::from_json(std::string_view text) {               \
    return ::cudanp::json::parse_record<T>(text, fields);              \
  }
#define CUDANP_JSON_NESTED_RECORD(T, fields)                            \
  CUDANP_JSON_RECORD(T, fields)                                        \
  std::optional<T> T::from_json_value(const ::cudanp::json::Value& v) { \
    return ::cudanp::json::read_record<T>(v, fields);                  \
  }
