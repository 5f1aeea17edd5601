// Test helpers for STAT output. StatLines reads a `stats` body back as
// name -> the values of every "STAT <name> <value>" line carrying that
// name, in order, with the standard library only (independently of the
// code under test), so a test can check that a name appears exactly once.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/counters.h"

namespace iq {

inline std::map<std::string, std::vector<std::string>> StatLines(
    std::string_view text) {
  std::map<std::string, std::vector<std::string>> out;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.rfind("STAT ", 0) != 0) continue;
    const std::size_t space = line.find(' ', 5);
    if (space == std::string::npos) continue;
    out[line.substr(5, space - 5)].push_back(line.substr(space + 1));
  }
  return out;
}

/// Every row of `rows` appears in `lines` exactly once, as `prefix` + its
/// name, carrying the value of its member in `snapshot`.
template <typename Set, std::size_t N>
void ExpectRowsOnce(const std::map<std::string, std::vector<std::string>>& lines,
                    const Set& snapshot, const CounterField<Set> (&rows)[N],
                    const std::string& prefix = "") {
  for (const CounterField<Set>& r : rows) {
    const std::string name = prefix + r.name;
    auto it = lines.find(name);
    ASSERT_NE(it, lines.end()) << name;
    ASSERT_EQ(it->second.size(), 1u) << name;
    EXPECT_EQ(it->second[0], std::to_string(snapshot.*r.member)) << name;
  }
}

}  // namespace iq
