#include "rdbms/value.h"

#include <functional>
#include <limits>
#include <stdexcept>

namespace iq::sql {

void Value::SetText(std::string_view text) {
  if (text.size() <= kTag) {
    std::memcpy(rep_, text.data(), text.size());
    rep_[kTag] = static_cast<char>(kInlineText + text.size());
    return;
  }
  if (text.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("sql::Value text longer than 4 GiB");
  }
  char* bytes = new char[text.size()];
  std::memcpy(bytes, text.data(), text.size());
  const auto size = static_cast<std::uint32_t>(text.size());
  std::memcpy(rep_, &bytes, sizeof bytes);
  std::memcpy(rep_ + 8, &size, sizeof size);
  rep_[kTag] = kHeapText;
}

std::string ToString(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_int()) return std::to_string(v.int_value());
  std::string out = "'";
  out += v.text();
  out += "'";
  return out;
}

std::string ToString(const Row& row) {
  std::string out = "(";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += ToString(row[i]);
  }
  out += ")";
  return out;
}

std::size_t ValueHash::operator()(const Value& v) const {
  if (v.is_null()) return 0x9e3779b9;
  if (v.is_int()) return std::hash<std::int64_t>{}(v.int_value());
  return std::hash<std::string_view>{}(v.text());
}

}  // namespace iq::sql
