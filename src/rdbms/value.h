// Value model for the relational engine: a cell is NULL, a 64-bit integer,
// or a text string. Rows are flat vectors of cells positioned by the table
// schema's column order.
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iq::sql {

/// One table cell, 16 bytes: NULL, an integer, or text. Text of up to 15
/// bytes is stored in the cell; longer text lives in one heap block the
/// cell owns. Cells order NULL < integers < text (text bytewise), which
/// only matters for deterministic sorts. A moved-from cell is NULL.
class Value {
 public:
  /// NULL.
  Value() noexcept { rep_[kTag] = kNull; }
  Value(std::int64_t x) noexcept {
    std::memcpy(rep_, &x, sizeof x);
    rep_[kTag] = kInt;
  }
  explicit Value(std::string_view text) { SetText(text); }

  Value(const Value& other) {
    if (other.tag() == kHeapText) {
      SetText(other.text());
    } else {
      std::memcpy(rep_, other.rep_, sizeof rep_);
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof rep_);
    other.rep_[kTag] = kNull;
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      FreeText();
      std::memcpy(rep_, other.rep_, sizeof rep_);
      other.rep_[kTag] = kNull;
    }
    return *this;
  }
  ~Value() { FreeText(); }

  bool is_null() const { return tag() == kNull; }
  bool is_int() const { return tag() == kInt; }
  bool is_text() const { return tag() >= kHeapText; }

  /// The integer; the cell must hold one.
  std::int64_t int_value() const {
    std::int64_t x;
    std::memcpy(&x, rep_, sizeof x);
    return x;
  }

  /// The text, valid while the cell is unchanged; the cell must hold text.
  std::string_view text() const {
    if (tag() != kHeapText) {
      return {rep_, static_cast<std::size_t>(tag() - kInlineText)};
    }
    return {HeapBytes(), HeapSize()};
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.tag() != b.tag()) return false;  // text stays inline iff it fits
    if (a.is_int()) return a.int_value() == b.int_value();
    return a.is_null() || a.text() == b.text();
  }

  friend std::strong_ordering operator<=>(const Value& a, const Value& b) {
    if (a.rank() != b.rank()) return a.rank() <=> b.rank();
    if (a.is_int()) return a.int_value() <=> b.int_value();
    if (a.is_text()) return a.text() <=> b.text();
    return std::strong_ordering::equal;
  }

 private:
  // rep_[kTag] says what the other fifteen bytes hold. An integer is in
  // rep_[0, 8). Inline text of n bytes (tag kInlineText + n) is in
  // rep_[0, n). Heap text keeps its block's address in rep_[0, 8) and its
  // length in rep_[8, 12).
  static constexpr std::size_t kTag = 15;
  static constexpr char kNull = 0;
  static constexpr char kInt = 1;
  static constexpr char kHeapText = 2;
  static constexpr char kInlineText = 3;

  char tag() const { return rep_[kTag]; }
  /// NULL < integers < text.
  char rank() const { return tag() < kHeapText ? tag() : kHeapText; }

  char* HeapBytes() const {
    char* bytes;
    std::memcpy(&bytes, rep_, sizeof bytes);
    return bytes;
  }
  std::uint32_t HeapSize() const {
    std::uint32_t size;
    std::memcpy(&size, rep_ + 8, sizeof size);
    return size;
  }
  /// Stores `text`; the cell must hold no heap block.
  void SetText(std::string_view text);
  void FreeText() noexcept {
    if (tag() == kHeapText) delete[] HeapBytes();
  }

  alignas(8) char rep_[16] = {};
};

static_assert(sizeof(Value) == 16);

using Row = std::vector<Value>;

inline Value V() { return Value(); }
inline Value V(std::int64_t x) { return x; }
inline Value V(int x) { return static_cast<std::int64_t>(x); }
inline Value V(std::string s) { return Value(s); }
inline Value V(const char* s) { return Value(std::string_view(s)); }

inline bool IsNull(const Value& v) { return v.is_null(); }

/// Integer accessor; returns nullopt for non-integers.
inline std::optional<std::int64_t> AsInt(const Value& v) {
  if (v.is_int()) return v.int_value();
  return std::nullopt;
}

/// Text accessor; returns nullopt for non-strings.
inline std::optional<std::string> AsText(const Value& v) {
  if (v.is_text()) return std::string(v.text());
  return std::nullopt;
}

std::string ToString(const Value& v);
std::string ToString(const Row& row);

/// Hash for composite keys built from Values (used by indexes).
struct ValueHash {
  std::size_t operator()(const Value& v) const;
};

struct RowHash {
  std::size_t operator()(const Row& r) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    ValueHash vh;
    for (const auto& v : r) h = (h ^ vh(v)) * 0x100000001b3ULL;
    return h;
  }
};

}  // namespace iq::sql
