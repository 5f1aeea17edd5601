#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

thread_local SpanLog* t_log = nullptr;

/// Span around one decorated call; inert when the thread has no log.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, Verb verb)
      : log_(t_log), index_(log_ != nullptr ? log_->Open(layer, verb) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kNone: return "action";
    case Verb::kGenId: return "genid";
    case Verb::kIQget: return "iqget";
    case Verb::kIQset: return "iqset";
    case Verb::kQaRead: return "qaread";
    case Verb::kSaR: return "sar";
    case Verb::kQaReg: return "qareg";
    case Verb::kDaR: return "dar";
    case Verb::kIQDelta: return "iqdelta";
    case Verb::kCommit: return "commit";
    case Verb::kAbort: return "abort";
    case Verb::kRelease: return "release";
    case Verb::kPlain: return "plain";
  }
  return "?";
}

std::int32_t SpanLog::Open(Layer layer, Verb verb) {
  Span s;
  s.action = action_;
  s.parent = current_;
  s.layer = layer;
  s.verb = verb;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  spans_.back().start = Now();
  return current_;
}

void SpanLog::Close(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = Now();
  current_ = s.parent;
}

std::int32_t SpanLog::OpenAction() {
  ++action_;
  return Open(Layer::kAction, Verb::kNone);
}

void BindSpanLog(SpanLog* log) { t_log = log; }

std::vector<Nanos> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    Nanos lo = std::max(s.start, p.start);
    Nanos hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<Nanos> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    Nanos covered = 0;
    Nanos run_lo = 0;
    Nanos run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// ---- TracingBackend ---------------------------------------------------------

template <typename Fn>
void TracingBackend::Finish(Verb verb, Fn&& fn) {
  ScopedSpan s(layer_, verb);
  if (layer_ == Layer::kShard) {
    ++counts_.shard_commits;
    fn();
    return;
  }
  std::uint64_t before = counts_.shard_commits;
  fn();
  if (counts_.shard_commits != before) ++counts_.touched_commits;
}

iq::SessionId TracingBackend::GenID() {
  ScopedSpan s(layer_, Verb::kGenId);
  return inner_.GenID();
}
iq::GetReply TracingBackend::IQget(std::string_view key,
                                   iq::SessionId session) {
  ScopedSpan s(layer_, Verb::kIQget);
  return inner_.IQget(key, session);
}
iq::StoreResult TracingBackend::IQset(std::string_view key,
                                      std::string_view value,
                                      iq::LeaseToken token) {
  ScopedSpan s(layer_, Verb::kIQset);
  return inner_.IQset(key, value, token);
}
iq::QaReadReply TracingBackend::QaRead(std::string_view key,
                                       iq::SessionId session) {
  ScopedSpan s(layer_, Verb::kQaRead);
  return inner_.QaRead(key, session);
}
iq::StoreResult TracingBackend::SaR(std::string_view key,
                                    std::optional<std::string_view> v_new,
                                    iq::LeaseToken token) {
  ScopedSpan s(layer_, Verb::kSaR);
  return inner_.SaR(key, v_new, token);
}
iq::QuarantineResult TracingBackend::QaReg(iq::SessionId tid,
                                           std::string_view key) {
  ScopedSpan s(layer_, Verb::kQaReg);
  return inner_.QaReg(tid, key);
}
void TracingBackend::DaR(iq::SessionId tid) {
  Finish(Verb::kDaR, [&] { inner_.DaR(tid); });
}
iq::QuarantineResult TracingBackend::IQDelta(iq::SessionId tid,
                                             std::string_view key,
                                             iq::DeltaOp delta) {
  ScopedSpan s(layer_, Verb::kIQDelta);
  return inner_.IQDelta(tid, key, std::move(delta));
}
void TracingBackend::Commit(iq::SessionId tid) {
  Finish(Verb::kCommit, [&] { inner_.Commit(tid); });
}
void TracingBackend::Abort(iq::SessionId tid) {
  ScopedSpan s(layer_, Verb::kAbort);
  inner_.Abort(tid);
}
void TracingBackend::ReleaseKey(iq::SessionId tid, std::string_view key) {
  ScopedSpan s(layer_, Verb::kRelease);
  inner_.ReleaseKey(tid, key);
}
std::optional<iq::CacheItem> TracingBackend::Get(std::string_view key) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Get(key);
}
iq::StoreResult TracingBackend::Set(std::string_view key,
                                    std::string_view value) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Set(key, value);
}
iq::StoreResult TracingBackend::Add(std::string_view key,
                                    std::string_view value) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Add(key, value);
}
iq::StoreResult TracingBackend::Cas(std::string_view key,
                                    std::string_view value,
                                    std::uint64_t cas) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Cas(key, value, cas);
}
iq::StoreResult TracingBackend::Append(std::string_view key,
                                       std::string_view blob) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Append(key, blob);
}
iq::StoreResult TracingBackend::Prepend(std::string_view key,
                                        std::string_view blob) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Prepend(key, blob);
}
std::optional<std::uint64_t> TracingBackend::Incr(std::string_view key,
                                                  std::uint64_t amount) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Incr(key, amount);
}
std::optional<std::uint64_t> TracingBackend::Decr(std::string_view key,
                                                  std::uint64_t amount) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.Decr(key, amount);
}
bool TracingBackend::DeleteVoid(std::string_view key) {
  ScopedSpan s(layer_, Verb::kPlain);
  return inner_.DeleteVoid(key);
}

// ---- self-test ----------------------------------------------------------------

int SelfTestSpanArithmetic() {
  // root [0,100]
  //   a [10,30]      grandchild g [12,20] under a
  //   b [25,50]      overlaps a: together they cover [10,50]
  //   c [90,120]     runs past the root: only [90,100] counts against it
  auto span = [](Nanos start, Nanos end, std::int32_t parent) {
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
  };
  std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                             span(12, 20, 1),  span(25, 50, 0),
                             span(90, 120, 0)};
  const Nanos want[] = {50, 12, 8, 25, 30};
  std::vector<Nanos> got = SelfTimes(spans);
  int failures = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (got[i] != want[i]) {
      std::fprintf(stderr, "self-test: span %zu self time %lld, want %lld\n", i,
                   static_cast<long long>(got[i]),
                   static_cast<long long>(want[i]));
      ++failures;
    }
  }
  // Adjacent children [0,5] and [5,10] cover their parent [0,10] exactly.
  std::vector<Span> adjacent = {span(0, 10, -1), span(0, 5, 0), span(5, 10, 0)};
  if (SelfTimes(adjacent)[0] != 0) {
    std::fprintf(stderr, "self-test: adjacent children leave self time\n");
    ++failures;
  }
  return failures;
}

}  // namespace perfbench
