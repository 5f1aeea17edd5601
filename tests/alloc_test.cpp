// Allocation budget of the wire hot path, and heap bytes per cached item and
// per RDBMS row. A
// replaced global operator new counts every heap allocation in the process,
// client and server threads alike, and the bytes they hold (malloc's usable
// size, taken back on free), so this file is a test binary of its own. Each
// wire case warms up, then averages the allocations of one operation over
// many.
//
// Sanitizer runtimes allocate on their own behalf, so the cases skip there.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "bg/social_graph.h"
#include "core/iq_server.h"
#include "kvs/kvs.h"
#include "net/channel.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IQ_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IQ_SANITIZED 1
#endif
#endif
#ifndef IQ_SANITIZED
#define IQ_SANITIZED 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

#if !IQ_SANITIZED
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
namespace {
// Every form of delete frees through here. A sized or array delete that
// called operator delete(void*) instead drew GCC 12's
// -Wmismatched-new-delete in Release builds, which see the malloc inside
// operator new.
void FreeCounted(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace
void operator delete(void* p) noexcept { FreeCounted(p); }
void operator delete[](void* p) noexcept { FreeCounted(p); }
void operator delete(void* p, std::size_t) noexcept { FreeCounted(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeCounted(p); }
#endif

namespace iq::net {
namespace {

constexpr int kWarmOps = 200;
constexpr int kOps = 2000;
const std::string kValue(100, 'v');

/// Heap allocations per call of `op`, averaged over kOps calls that follow
/// kWarmOps warm-up calls. `op` returns false on a wrong answer.
template <typename Op>
double AllocationsPer(Op op) {
  for (int i = 0; i < kWarmOps; ++i) EXPECT_TRUE(op());
  int wrong = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kOps; ++i) wrong += op() ? 0 : 1;
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(wrong, 0);
  return static_cast<double>(after - before) / kOps;
}

bool Hit(RemoteBackend& backend) {
  GetReply r = backend.IQget("hit", 0);
  return r.status == GetReply::Status::kHit && r.value == kValue;
}

/// One-key refresh session: GenID, one acquire frame, one commit frame.
bool RefreshSession(RemoteBackend& backend) {
  SessionId tid = backend.GenID();
  std::vector<LeaseReply> leases =
      backend.Acquire(tid, {{LeaseRequest::Kind::kQaRead, "session"}});
  if (leases.size() != 1 || leases[0].status != LeaseReply::Status::kGranted) {
    return false;
  }
  std::vector<StoreResult> stored =
      backend.CommitSwaps(tid, {{"session", kValue, leases[0].token}});
  return stored.size() == 1 && stored[0] == StoreResult::kStored;
}

class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (IQ_SANITIZED) GTEST_SKIP() << "sanitizer runtimes allocate on their own";
    server_.Set("hit", kValue);
    server_.Set("session", kValue);
  }

  /// A one-worker TcpServer over server_ and one connection to it.
  std::unique_ptr<TcpChannel> StartTcp() {
    TcpServer::Config config;
    config.workers = 1;
    tcp_ = std::make_unique<TcpServer>(server_, config);
    std::string error;
    EXPECT_TRUE(tcp_->Start(&error)) << error;
    auto channel = TcpChannel::Connect("127.0.0.1", tcp_->port(), &error);
    EXPECT_NE(channel, nullptr) << error;
    return channel;
  }

  IQServer server_;
  std::unique_ptr<TcpServer> tcp_;
};

TEST_F(AllocTest, IQgetHitOverLoopback) {
  LoopbackChannel channel(server_);
  RemoteBackend backend(channel);
  double per_hit = AllocationsPer([&] { return Hit(backend); });
  EXPECT_LE(per_hit, 3.0);
  RecordProperty("allocations_per_hit", std::to_string(per_hit));
}

TEST_F(AllocTest, IQgetHitOverTcp) {
  auto channel = StartTcp();
  ASSERT_NE(channel, nullptr);
  RemoteBackend backend(*channel);
  double per_hit = AllocationsPer([&] { return Hit(backend); });
  EXPECT_LE(per_hit, 3.0);
  RecordProperty("allocations_per_hit", std::to_string(per_hit));
}

TEST_F(AllocTest, RefreshSessionOverTcp) {
  auto channel = StartTcp();
  ASSERT_NE(channel, nullptr);
  RemoteBackend backend(*channel);
  double per_session = AllocationsPer([&] { return RefreshSession(backend); });
  EXPECT_LE(per_session, 20.0);
  RecordProperty("allocations_per_session", std::to_string(per_session));
}

// A cached item is stored once, in its index entry: a 48-byte header and
// the words of its size class, plus its index slot. 20,000 items shaped
// like BG's (14- and 15-byte keys, 23-byte values, every tenth value 100
// bytes) hold under 200 live bytes each in a default store.
TEST(AllocBudget, CacheItemBytes) {
  if (IQ_SANITIZED) GTEST_SKIP() << "sanitizer runtimes allocate on their own";
  constexpr int kItems = 20000;
  const std::string small(23, 's');
  const std::string large(100, 'l');
  const std::int64_t bytes_before = g_live_bytes.load();
  const std::uint64_t allocations_before = g_allocations.load();
  {
    iq::CacheStore store;
    for (int i = 0; i < kItems; ++i) {
      std::string key = i % 2 == 0 ? "Friends:{" : "Comments:";
      key += std::to_string(10000 + i / 2);
      if (i % 2 == 0) key += '}';
      store.Set(key, i % 10 == 0 ? large : small);
    }
    ASSERT_EQ(store.Stats().item_count, static_cast<std::uint64_t>(kItems));
    const double bytes_per_item =
        static_cast<double>(g_live_bytes.load() - bytes_before) / kItems;
    const double allocations_per_insert =
        static_cast<double>(g_allocations.load() - allocations_before) /
        kItems;
    EXPECT_LE(bytes_per_item, 200.0);
    RecordProperty("live_bytes_per_item", std::to_string(bytes_per_item));
    RecordProperty("allocations_per_insert",
                   std::to_string(allocations_per_insert));
  }
}

// The RDBMS is most of a BG run's memory: every loaded row is one block
// holding its newest version's timestamps and its cells, reached from one
// primary-key slot and its bucket entries. A 1,000-member graph (61,000
// rows) stays under 106 live bytes and 2.8 allocations per row; the layout
// with a map node, a key vector and a cell vector per row took 224 bytes
// and 5.6 allocations.
TEST(AllocBudget, BgGraphRowBytes) {
  if (IQ_SANITIZED) GTEST_SKIP() << "sanitizer runtimes allocate on their own";
  bg::GraphConfig graph;  // 1,000 members
  sql::Database db;
  bg::CreateBgTables(db);
  const std::int64_t bytes_before = g_live_bytes.load();
  const std::uint64_t allocations_before = g_allocations.load();
  const std::size_t rows = bg::LoadGraph(db, graph);
  ASSERT_EQ(rows, 61000u);
  const double bytes_per_row =
      static_cast<double>(g_live_bytes.load() - bytes_before) / rows;
  const double allocations_per_row =
      static_cast<double>(g_allocations.load() - allocations_before) / rows;
  // 102 bytes and 2.66 allocations; the loader's own row vectors and
  // friend sets make 1.66 of those.
  EXPECT_LE(bytes_per_row, 106.0);
  EXPECT_LE(allocations_per_row, 2.8);
  RecordProperty("live_bytes_per_row", std::to_string(bytes_per_row));
  RecordProperty("allocations_per_row", std::to_string(allocations_per_row));
}

}  // namespace
}  // namespace iq::net
