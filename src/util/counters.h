// Counter sets. A set is a plain struct of std::uint64_t fields (the
// snapshot callers read) plus one constexpr {wire name, member} table that
// `static_assert(CoversEveryField(table))` checks: a new counter is one
// field and one table row. A live block touched only under a lock is
// bumped with ++ and summed under it (Accumulate); one that threads share
// is bumped with Bump, a relaxed std::atomic_ref add (the `lock add` of a
// relaxed std::atomic), and read only through atomic_ref (Peek,
// AccumulateLive, LoadCounters): a plain copy of it would be a data race.
// This header also owns the "STAT <name> <value>\r\n" format.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace iq {

/// One row of a counter set's table.
template <typename Set>
struct CounterField {
  const char* name;  // wire name, as in "STAT <name> <value>"
  std::uint64_t Set::* member;
};

/// True when `rows` names each field of Set once: Set holds nothing but N
/// std::uint64_t fields, and no two rows share a member or a name.
template <typename Set, std::size_t N>
constexpr bool CoversEveryField(const CounterField<Set> (&rows)[N]) {
  if (sizeof(Set) != N * sizeof(std::uint64_t)) return false;
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (rows[i].member == rows[j].member) return false;
      if (std::string_view(rows[i].name) == rows[j].name) return false;
    }
  }
  return true;
}

/// A live block on cache lines of its own (one per shard or per thread).
template <typename Set>
struct alignas(64) CounterBlock : Set {};

/// Add to (Bump) or subtract from (Unbump) a field of a shared live block.
inline void Bump(std::uint64_t& field, std::uint64_t n = 1) {
  std::atomic_ref<std::uint64_t>(field).fetch_add(n, std::memory_order_relaxed);
}

inline void Unbump(std::uint64_t& field, std::uint64_t n = 1) {
  std::atomic_ref<std::uint64_t>(field).fetch_sub(n, std::memory_order_relaxed);
}

/// A relaxed read of one live field; the block itself is never const.
inline std::uint64_t Peek(const std::uint64_t& field) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(field))
      .load(std::memory_order_relaxed);
}

/// total += part, for snapshots and for blocks read under their lock.
template <typename Set, std::size_t N>
void Accumulate(Set& total, const std::type_identity_t<Set>& part,
                const CounterField<Set> (&rows)[N]) {
  for (const CounterField<Set>& r : rows) total.*r.member += part.*r.member;
}

/// total += a live block.
template <typename Set, std::size_t N>
void AccumulateLive(Set& total, const std::type_identity_t<Set>& live,
                    const CounterField<Set> (&rows)[N]) {
  for (const CounterField<Set>& r : rows) {
    total.*r.member += Peek(live.*r.member);
  }
}

/// A snapshot of one live block.
template <typename Set, std::size_t N>
Set LoadCounters(const std::type_identity_t<Set>& live,
                 const CounterField<Set> (&rows)[N]) {
  Set out{};
  AccumulateLive(out, live, rows);
  return out;
}

/// Append one "STAT <name> <value>\r\n" line: the format's one writer.
inline void AppendStat(std::string& out, std::string_view name,
                       std::string_view value) {
  out.append("STAT ").append(name).append(" ").append(value).append("\r\n");
}

inline void AppendStat(std::string& out, std::string_view name,
                       std::uint64_t value) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  AppendStat(out, name, std::string_view(digits, end - digits));
}

/// One line per row, in table order, each name after `prefix`.
template <typename Set, std::size_t N>
void AppendStats(std::string& out, const std::type_identity_t<Set>& s,
                 const CounterField<Set> (&rows)[N],
                 std::string_view prefix = {}) {
  std::string name(prefix);
  for (const CounterField<Set>& r : rows) {
    name.resize(prefix.size());
    name += r.name;
    AppendStat(out, name, s.*r.member);
  }
}

/// Call fn(line) for each CR- or LF-terminated line of `text` (empty lines
/// included) until fn returns false. Returns false iff fn did.
template <typename Fn>
bool ForEachLine(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = std::min(text.find_first_of("\r\n", pos), text.size());
    if (!fn(text.substr(pos, eol - pos))) return false;
    pos = eol + 1;
  }
  return true;
}

/// Call fn(name, value) for each "STAT <name> <value>" line of `text`,
/// skipping every other line.
template <typename Fn>
void ForEachStat(std::string_view text, Fn&& fn) {
  ForEachLine(text, [&](std::string_view line) {
    if (!line.starts_with("STAT ")) return true;
    line.remove_prefix(5);
    std::size_t space = line.find(' ');
    if (space != std::string_view::npos && space > 0) {
      fn(line.substr(0, space), line.substr(space + 1));
    }
    return true;
  });
}

/// The set read back from STAT lines: a line naming a row, with a whole
/// decimal value, sets that field; every other line is ignored.
template <typename Set, std::size_t N>
Set ParseStats(std::string_view text, const CounterField<Set> (&rows)[N]) {
  Set out{};
  ForEachStat(text, [&](std::string_view name, std::string_view value) {
    for (const CounterField<Set>& r : rows) {
      if (name != r.name) continue;
      std::uint64_t v = 0;
      const char* end = value.data() + value.size();
      auto [ptr, ec] = std::from_chars(value.data(), end, v);
      if (ec == std::errc{} && ptr == end) out.*r.member = v;
      return;
    }
  });
  return out;
}

}  // namespace iq
