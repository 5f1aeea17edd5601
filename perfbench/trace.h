// Outside-in tracing for the traced run: spans recorded around the public
// calls the benchmark makes into each layer, never inside src/.
//
// A span is (name, start, end, parent, action id). Spans live in a
// per-thread SpanLog bound to the calling thread and are only read once the
// window has ended. A layer's self time is its span minus the part of that
// interval its direct child spans cover.
//
// TracingBackend is the KvsBackend decorator that produces the spans: the
// client-side one wraps what a CasqlSystem talks to (the "client" layer,
// the seam between casql and the cache tier); on a sharded tier a second
// one wraps each ShardedBackend child (the "shard" layer), so the router's
// own time is the client span minus its shard spans.
#pragma once

#include <cstdint>
#include <vector>

#include "core/kvs_backend.h"
#include "util.h"

namespace perfbench {

enum class Layer : std::uint8_t { kAction, kClient, kShard };

/// The KvsBackend verb a span covers (kNone for action spans).
enum class Verb : std::uint8_t {
  kNone,
  kGenId,
  kIQget,
  kIQset,
  kQaRead,
  kSaR,
  kQaReg,
  kDaR,
  kIQDelta,
  kCommit,
  kAbort,
  kRelease,
  kPlain,  // get/set/add/cas/append/prepend/incr/decr/delete
};
inline constexpr int kVerbCount = static_cast<int>(Verb::kPlain) + 1;
const char* VerbName(Verb v);

struct Span {
  Nanos start = 0;
  Nanos end = 0;
  std::uint64_t action = 0;  // shared by every span of one action
  std::int32_t parent = -1;  // index in the same log; -1 = root
  Layer layer = Layer::kAction;
  Verb verb = Verb::kNone;
};

/// One thread's spans, in open order.
class SpanLog {
 public:
  /// Open a span under the innermost open one; returns its index.
  std::int32_t Open(Layer layer, Verb verb);
  void Close(std::int32_t index);
  /// Start the next action: a new action id and an open root span.
  std::int32_t OpenAction();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint64_t action_ = 0;
};

/// Bind `log` to the calling thread (nullptr unbinds: spans become no-ops).
void BindSpanLog(SpanLog* log);

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
std::vector<Nanos> SelfTimes(const std::vector<Span>& spans);

/// The commits one client thread's decorators passed on: Commit/DaR calls
/// into shards, and client-layer commits that reached at least one shard.
/// Counted whether spans are being recorded or not, so the commit
/// accounting checks are exact over a whole window. One owner thread.
struct CallCounts {
  std::uint64_t shard_commits = 0;
  std::uint64_t touched_commits = 0;
};

/// KvsBackend decorator that records one span per call on the calling
/// thread's log (no span when no log is bound) and counts commits.
class TracingBackend final : public iq::KvsBackend {
 public:
  /// `layer` is kClient or kShard.
  TracingBackend(iq::KvsBackend& inner, Layer layer, CallCounts& counts)
      : inner_(inner), layer_(layer), counts_(counts) {}

  const iq::Clock& clock() const override { return inner_.clock(); }

  iq::SessionId GenID() override;
  iq::GetReply IQget(std::string_view key, iq::SessionId session = 0) override;
  iq::StoreResult IQset(std::string_view key, std::string_view value,
                        iq::LeaseToken token) override;
  iq::QaReadReply QaRead(std::string_view key, iq::SessionId session) override;
  iq::StoreResult SaR(std::string_view key,
                      std::optional<std::string_view> v_new,
                      iq::LeaseToken token) override;
  iq::QuarantineResult QaReg(iq::SessionId tid, std::string_view key) override;
  void DaR(iq::SessionId tid) override;
  iq::QuarantineResult IQDelta(iq::SessionId tid, std::string_view key,
                               iq::DeltaOp delta) override;
  void Commit(iq::SessionId tid) override;
  void Abort(iq::SessionId tid) override;
  void ReleaseKey(iq::SessionId tid, std::string_view key) override;

  std::optional<iq::CacheItem> Get(std::string_view key) override;
  iq::StoreResult Set(std::string_view key, std::string_view value) override;
  iq::StoreResult Add(std::string_view key, std::string_view value) override;
  iq::StoreResult Cas(std::string_view key, std::string_view value,
                      std::uint64_t cas) override;
  iq::StoreResult Append(std::string_view key, std::string_view blob) override;
  iq::StoreResult Prepend(std::string_view key, std::string_view blob) override;
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override;
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override;
  bool DeleteVoid(std::string_view key) override;

 private:
  /// Commit and DaR: span the call and count it.
  template <typename Fn>
  void Finish(Verb verb, Fn&& fn);

  iq::KvsBackend& inner_;
  Layer layer_;
  CallCounts& counts_;
};

/// Returns the number of failed checks of SelfTimes on a hand-built span
/// tree (overlapping children, a child running past its parent, a
/// grandchild that must not count against the root).
int SelfTestSpanArithmetic();

}  // namespace perfbench
