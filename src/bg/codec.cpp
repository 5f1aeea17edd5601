#include "bg/codec.h"

#include <charconv>

namespace iq::bg {
namespace {

std::optional<std::int64_t> ParseInt(std::string_view s) {
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return out;
}

}  // namespace

std::string EncodeProfile(const ProfileValue& p) {
  return p.name + "|" + std::to_string(p.friend_count) + "|" +
         std::to_string(p.pending_count);
}

std::optional<ProfileValue> DecodeProfile(const std::string& raw) {
  auto first = raw.find('|');
  if (first == std::string::npos) return std::nullopt;
  auto second = raw.find('|', first + 1);
  if (second == std::string::npos) return std::nullopt;
  auto fc = ParseInt(std::string_view(raw).substr(first + 1, second - first - 1));
  auto pc = ParseInt(std::string_view(raw).substr(second + 1));
  if (!fc || !pc) return std::nullopt;
  ProfileValue p;
  p.name = raw.substr(0, first);
  p.friend_count = *fc;
  p.pending_count = *pc;
  return p;
}

std::string EncodeIdList(const std::set<MemberId>& ids) {
  std::string out;
  for (MemberId id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id);
  }
  return out;
}

std::set<MemberId> DecodeIdList(const std::string& raw) {
  std::set<MemberId> ids;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t next = raw.find(',', pos);
    if (next == std::string::npos) next = raw.size();
    auto id = ParseInt(std::string_view(raw).substr(pos, next - pos));
    if (id) ids.insert(*id);
    pos = next + 1;
  }
  return ids;
}

std::string IdListAdd(const std::string& raw, MemberId id) {
  auto ids = DecodeIdList(raw);
  ids.insert(id);
  return EncodeIdList(ids);
}

std::string IdListRemove(const std::string& raw, MemberId id) {
  auto ids = DecodeIdList(raw);
  ids.erase(id);
  return EncodeIdList(ids);
}

namespace {

// "<prefix>{<id>}": the braces are a router hash tag, so every key built
// here for one member lands on that member's cache server.
std::string MemberKey(const char* prefix, MemberId id) {
  return std::string(prefix) + "{" + std::to_string(id) + "}";
}

}  // namespace

std::string ProfileKey(MemberId id) { return MemberKey("Profile:", id); }
std::string FriendsKey(MemberId id) { return MemberKey("Friends:", id); }
std::string PendingKey(MemberId id) { return MemberKey("Pending:", id); }
std::string TopKKey(MemberId id) { return "TopK:" + std::to_string(id); }
std::string CommentsKey(std::int64_t resource_id) {
  return "Comments:" + std::to_string(resource_id);
}
std::string PendingCountKey(MemberId id) { return MemberKey("PC:", id); }
std::string FriendCountKey(MemberId id) { return MemberKey("FC:", id); }

}  // namespace iq::bg
