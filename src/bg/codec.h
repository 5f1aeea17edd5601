// Value codecs for BG's key-value pairs.
//
// Key scheme (one key per cached query result, Section 6.1):
//   Profile:{<id>} -> "name|friendCount|pendingCount"
//   Friends:{<id>} -> comma-separated sorted friend ids
//   Pending:{<id>} -> comma-separated sorted inviter ids
//   TopK:<id>      -> comma-separated resource ids (static)
//   Comments:<rid> -> comma-separated comment ids (static)
// Incremental-update mode additionally uses numeric counter keys
//   PC:{<id>} / FC:{<id>} so incr/decr deltas apply (see DESIGN.md).
// The braces are a hash tag (DESIGN.md §4.3): the sharded router places a
// tagged key by its member id alone, so the keys one member's write
// sessions update together share a cache server. TopK and Comments are
// never written, so they stay untagged and spread a hot member's reads.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace iq::bg {

using MemberId = std::int64_t;

struct ProfileValue {
  std::string name;
  std::int64_t friend_count = 0;
  std::int64_t pending_count = 0;
};

std::string EncodeProfile(const ProfileValue& p);
std::optional<ProfileValue> DecodeProfile(const std::string& raw);

/// Id lists are stored sorted and deduplicated so refresh is deterministic.
std::string EncodeIdList(const std::set<MemberId>& ids);
std::set<MemberId> DecodeIdList(const std::string& raw);

/// Add/remove one id in an encoded list (refresh-technique helpers).
std::string IdListAdd(const std::string& raw, MemberId id);
std::string IdListRemove(const std::string& raw, MemberId id);

// Key builders.
std::string ProfileKey(MemberId id);
std::string FriendsKey(MemberId id);
std::string PendingKey(MemberId id);
std::string TopKKey(MemberId id);
std::string CommentsKey(std::int64_t resource_id);
std::string PendingCountKey(MemberId id);  // incremental mode
std::string FriendCountKey(MemberId id);   // incremental mode

}  // namespace iq::bg
