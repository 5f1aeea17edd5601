// Microbenchmarks (google-benchmark): raw costs of the substrate
// operations - KVS commands, lease acquisition/release, the wire codec,
// RDBMS transactions, SQL parse/execute, and the KVS and RDBMS at BG scale -
// to back up the Table 8 claim that the lease machinery adds negligible
// overhead to the cache hot path.
#include "core/iq_server.h"
#include <benchmark/benchmark.h>

#include "bg/codec.h"
#include "bg/social_graph.h"
#include "core/iq_client.h"
#include "net/protocol.h"
#include "rdbms/sql.h"

namespace iq {
namespace {

/// `prefix` followed by `n`. Appended rather than written
/// `"prefix" + std::to_string(n)`: GCC 12 reports a spurious -Wrestrict on
/// that operator+ where a Release build inlines it into a thread loop.
std::string Numbered(const char* prefix, int n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

// ---- KVS ---------------------------------------------------------------------

void BM_KvsSet(benchmark::State& state) {
  CacheStore store;
  std::string value(128, 'x');
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.Set("key" + std::to_string(i++ % 1024), value);
  }
}
BENCHMARK(BM_KvsSet);

void BM_KvsGetHit(benchmark::State& state) {
  CacheStore store;
  for (int i = 0; i < 1024; ++i) store.Set("key" + std::to_string(i), "value");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("key" + std::to_string(i++ % 1024)));
  }
}
BENCHMARK(BM_KvsGetHit);

void BM_KvsGetHitLocked(benchmark::State& state) {
  // A/B baseline: same hit path with optimistic reads disabled, so every
  // read takes the shard mutex.
  CacheStore store({.shard_count = 16,
                    .memory_budget_bytes = 0,
                    .optimistic_value_cap = 0});
  for (int i = 0; i < 1024; ++i) store.Set("key" + std::to_string(i), "value");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("key" + std::to_string(i++ % 1024)));
  }
}
BENCHMARK(BM_KvsGetHitLocked);

// Shared-keyspace read-hit scaling: every thread reads the SAME hot keys,
// the worst case for the mutex (all hits funnel through 16 shard locks) and
// the best case for the seqlock entries (readers never write shared state
// except each entry's CLOCK bit, and that only while it is clear).
void BM_KvsGetHitThreaded(benchmark::State& state) {
  static CacheStore* store = nullptr;
  if (state.thread_index() == 0) {
    store = new CacheStore({.shard_count = 16, .memory_budget_bytes = 0});
    for (int i = 0; i < 256; ++i) store->Set("hot" + std::to_string(i), "value");
  }
  std::uint64_t i = state.thread_index() * 37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get("hot" + std::to_string(i++ % 256)));
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_KvsGetHitThreaded)->Threads(8)->UseRealTime();

void BM_KvsGetHitThreadedLocked(benchmark::State& state) {
  static CacheStore* store = nullptr;
  if (state.thread_index() == 0) {
    store = new CacheStore({.shard_count = 16,
                            .memory_budget_bytes = 0,
                            .optimistic_value_cap = 0});
    for (int i = 0; i < 256; ++i) store->Set("hot" + std::to_string(i), "value");
  }
  std::uint64_t i = state.thread_index() * 37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Get("hot" + std::to_string(i++ % 256)));
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_KvsGetHitThreadedLocked)->Threads(8)->UseRealTime();

void BM_KvsGetMiss(benchmark::State& state) {
  CacheStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("absent"));
  }
}
BENCHMARK(BM_KvsGetMiss);

void BM_KvsCas(benchmark::State& state) {
  CacheStore store;
  store.Set("key", "0");
  for (auto _ : state) {
    auto item = store.Get("key");
    store.Cas("key", item->value, item->cas);
  }
}
BENCHMARK(BM_KvsCas);

void BM_KvsIncr(benchmark::State& state) {
  CacheStore store;
  store.Set("n", "0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Incr("n", 1));
  }
}
BENCHMARK(BM_KvsIncr);

// A default CacheStore warmed like bg_read's cache: 140,000 items with BG's
// keys (four per member of a 10,000-member graph, one per resource) and
// 23-byte values, every tenth 100 bytes. Cases walk the keys with a large
// stride, so most probes miss the CPU caches as BG's skewed reads do.
class BgCacheFixture : public benchmark::Fixture {
 public:
  static constexpr std::size_t kItems = 140000;
  static const std::vector<std::string>& Keys() {
    static const std::vector<std::string> keys = [] {
      std::vector<std::string> k;
      for (bg::MemberId id = 0; id < 10000; ++id) {
        k.push_back(bg::ProfileKey(id));
        k.push_back(bg::FriendsKey(id));
        k.push_back(bg::PendingKey(id));
        k.push_back(bg::TopKKey(id));
      }
      for (std::int64_t r = 0; r < 100000; ++r) {
        k.push_back(bg::CommentsKey(r));
      }
      return k;
    }();
    return keys;
  }
  static std::string Value(std::size_t i) {
    return std::string(i % 10 == 0 ? 100 : 23, 'v');
  }
  /// Loaded once, shared by the cases.
  static CacheStore& Store() {
    static CacheStore* store = [] {
      auto* s = new CacheStore;
      for (std::size_t i = 0; i < kItems; ++i) s->Set(Keys()[i], Value(i));
      return s;
    }();
    return *store;
  }
  static std::size_t Next(std::size_t i) { return (i + 7919) % kItems; }
};

BENCHMARK_F(BgCacheFixture, LockFreeHit)(benchmark::State& state) {
  CacheStore& store = Store();
  const std::vector<std::string>& keys = Keys();
  std::size_t i = 0;
  std::int64_t misses = 0;
  for (auto _ : state) {
    auto item = store.OptimisticGet(keys[i]);
    misses += item ? 0 : 1;
    benchmark::DoNotOptimize(item);
    i = Next(i);
  }
  // A key whose probe run outgrows the lock-free reader's probe limit is
  // served by the locked path (6 of the 140,000).
  state.counters["miss_ratio"] =
      benchmark::Counter(static_cast<double>(misses),
                         benchmark::Counter::kAvgIterations);
}

// The same value size again, so the item is rewritten in its own entry.
BENCHMARK_F(BgCacheFixture, Overwrite)(benchmark::State& state) {
  CacheStore& store = Store();
  const std::vector<std::string>& keys = Keys();
  const std::string small = Value(1);
  const std::string large = Value(0);
  std::size_t i = 0;
  for (auto _ : state) {
    store.Set(keys[i], i % 10 == 0 ? large : small);
    i = Next(i);
  }
}

// ---- IQ lease path -------------------------------------------------------------

void BM_IQgetHit(benchmark::State& state) {
  // The Table 8 hot path: a plain hit through the lease-checking read.
  IQServer server;
  server.store().Set("key", "value");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.IQget("key", 1));
  }
}
BENCHMARK(BM_IQgetHit);

void BM_ILeaseGrantInstall(benchmark::State& state) {
  IQServer server;
  for (auto _ : state) {
    GetReply r = server.IQget("key", 1);
    server.IQset("key", "value", r.token);
    state.PauseTiming();
    server.store().Delete("key");
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ILeaseGrantInstall);

// ---- contended IQ lease paths ------------------------------------------------
// These run with ->Threads(): one shared server, per-thread keyspaces, so
// the only cross-thread sharing is whatever the server itself imposes. The
// original implementation serialized every lease grant/backoff/commit on a
// process-global stats mutex; with per-shard counters the threads should
// scale with the shard count.

void BM_IQgetHitThreaded(benchmark::State& state) {
  static IQServer* server = nullptr;
  if (state.thread_index() == 0) {
    server = new IQServer;
    for (int t = 0; t < state.threads(); ++t) {
      const std::string prefix = Numbered("t", t) + "-";
      for (int i = 0; i < 256; ++i) {
        server->store().Set(prefix + std::to_string(i), "value");
      }
    }
  }
  std::string prefix = "t" + std::to_string(state.thread_index()) + "-";
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server->IQget(prefix + std::to_string(i++ % 256), 1));
  }
  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_IQgetHitThreaded)->Threads(8)->UseRealTime();

void BM_ILeaseGrantInstallThreaded(benchmark::State& state) {
  // Full I-lease lifecycle per iteration: miss -> grant -> install ->
  // delete. Every grant bumps a server counter, so this was the worst case
  // for the global stats mutex.
  static IQServer* server = nullptr;
  if (state.thread_index() == 0) server = new IQServer;
  std::string prefix = "g" + std::to_string(state.thread_index()) + "-";
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::string key = prefix + std::to_string(i++ % 256);
    GetReply r = server->IQget(key, 1);
    if (r.status == GetReply::Status::kMissGrantedI) {
      server->IQset(key, "value", r.token);
    }
    server->store().Delete(key);
  }
  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_ILeaseGrantInstallThreaded)->Threads(8)->UseRealTime();

void BM_QaReadSaRThreaded(benchmark::State& state) {
  static IQServer* server = nullptr;
  if (state.thread_index() == 0) {
    server = new IQServer;
    for (int t = 0; t < state.threads(); ++t) {
      server->store().Set(Numbered("q", t), "value");
    }
  }
  std::string key = "q" + std::to_string(state.thread_index());
  SessionId session = static_cast<SessionId>(state.thread_index()) + 1;
  for (auto _ : state) {
    QaReadReply q = server->QaRead(key, session);
    server->SaR(key, "value", q.token);
  }
  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_QaReadSaRThreaded)->Threads(8)->UseRealTime();

void BM_QaReadSaR(benchmark::State& state) {
  IQServer server;
  server.store().Set("key", "value");
  for (auto _ : state) {
    QaReadReply q = server.QaRead("key", 1);
    server.SaR("key", "value", q.token);
  }
}
BENCHMARK(BM_QaReadSaR);

void BM_QuarantineCommit(benchmark::State& state) {
  IQServer server;
  for (auto _ : state) {
    state.PauseTiming();
    server.store().Set("key", "value");
    state.ResumeTiming();
    SessionId tid = server.GenID();
    server.QaReg(tid, "key");
    server.Commit(tid);
  }
}
BENCHMARK(BM_QuarantineCommit);

void BM_DeltaCommit(benchmark::State& state) {
  IQServer server;
  server.store().Set("n", "0");
  for (auto _ : state) {
    SessionId tid = server.GenID();
    server.IQDelta(tid, "n", DeltaOp{DeltaOp::Kind::kIncr, {}, 1});
    server.Commit(tid);
  }
}
BENCHMARK(BM_DeltaCommit);

// ---- wire codec ----------------------------------------------------------------
// The codec layer below the perfbench ladder's loopback rung: each message
// read in place (view rows) and through the owning adapter (owning rows).

const std::string kIQgetRequest = "iqget user:42 7\r\n";
const std::string kValueReply =
    "VALUE user:42 0 100\r\n" + std::string(100, 'v') + "\r\nEND\r\n";
const std::string kQaReadFrame =
    "batch 3\r\nqaread a 7\r\nqaread b 7\r\nqaread c 7\r\n";
const std::string kQaReadFrameReply = "BATCH 3\r\nQVALUE 11 100\r\n" +
                                      std::string(100, 'a') +
                                      "\r\nQVALUE 12 100\r\n" +
                                      std::string(100, 'b') +
                                      "\r\nQMISS 13\r\n";

/// One request fed and taken per iteration, as a RequestView or a Request.
template <typename RequestT>
void ParseRequests(benchmark::State& state, const std::string& bytes) {
  net::RequestParser parser;
  RequestT request;
  std::string error;
  for (auto _ : state) {
    parser.Feed(bytes);
    if (parser.Next(&request, &error) != net::RequestParser::Status::kOk) {
      state.SkipWithError("parse failed");
      break;
    }
    benchmark::DoNotOptimize(request);
  }
}

void BM_CodecRequestView(benchmark::State& state, const std::string& bytes) {
  ParseRequests<net::RequestView>(state, bytes);
}
BENCHMARK_CAPTURE(BM_CodecRequestView, iqget, kIQgetRequest);
BENCHMARK_CAPTURE(BM_CodecRequestView, batch3_qaread, kQaReadFrame);

void BM_CodecRequestOwning(benchmark::State& state, const std::string& bytes) {
  ParseRequests<net::Request>(state, bytes);
}
BENCHMARK_CAPTURE(BM_CodecRequestOwning, iqget, kIQgetRequest);
BENCHMARK_CAPTURE(BM_CodecRequestOwning, batch3_qaread, kQaReadFrame);

void BM_CodecReplyView(benchmark::State& state, const std::string& bytes) {
  net::ResponseView response;
  std::vector<net::ResponseView> batch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ReadResponse(bytes, &response, &batch));
  }
}
BENCHMARK_CAPTURE(BM_CodecReplyView, value100, kValueReply);
BENCHMARK_CAPTURE(BM_CodecReplyView, batch3_qaread, kQaReadFrameReply);

void BM_CodecReplyOwning(benchmark::State& state, const std::string& bytes) {
  std::size_t consumed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ParseResponse(bytes, &consumed));
  }
}
BENCHMARK_CAPTURE(BM_CodecReplyOwning, value100, kValueReply);
BENCHMARK_CAPTURE(BM_CodecReplyOwning, batch3_qaread, kQaReadFrameReply);

// ---- RDBMS ---------------------------------------------------------------------

class RdbmsFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (db) return;
    db = std::make_unique<sql::Database>();
    db->CreateTable(sql::SchemaBuilder("T")
                        .AddInt("id")
                        .AddInt("n")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db->Begin();
    for (int i = 0; i < 1024; ++i) txn->Insert("T", {sql::V(i), sql::V(0)});
    txn->Commit();
  }
  std::unique_ptr<sql::Database> db;
};

BENCHMARK_F(RdbmsFixture, PointRead)(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    benchmark::DoNotOptimize(txn->SelectByPk("T", {sql::V(i++ % 1024)}));
    txn->Rollback();
  }
}

BENCHMARK_F(RdbmsFixture, UpdateCommit)(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    txn->UpdateByPk("T", {sql::V(i++ % 1024)}, [](sql::Row& row) {
      row[1] = sql::V(*sql::AsInt(row[1]) + 1);
    });
    txn->Commit();
  }
}

BENCHMARK_F(RdbmsFixture, SqlPrepare)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sql::Prepare("SELECT n FROM T WHERE id = ? AND n >= 0"));
  }
}

BENCHMARK_F(RdbmsFixture, SqlExecutePrepared)(benchmark::State& state) {
  auto stmt = sql::Prepare("SELECT n FROM T WHERE id = ?");
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    benchmark::DoNotOptimize(sql::Execute(*txn, stmt, {sql::V(i++ % 1024)}));
    txn->Rollback();
  }
}

BENCHMARK_F(RdbmsFixture, SqlUpdateArithmetic)(benchmark::State& state) {
  auto stmt = sql::Prepare("UPDATE T SET n = n + 1 WHERE id = ?");
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    sql::Execute(*txn, stmt, {sql::V(i++ % 1024)});
    txn->Commit();
  }
}

// ---- RDBMS at BG scale ---------------------------------------------------------
// The graph perfbench's workloads load (10,000 members, 610,000 rows). Its
// rows spread over a few hundred MiB, so a probe pays the cache misses a
// casql miss pays, which the 1,024-row fixture above hides.

class BgRdbmsFixture : public benchmark::Fixture {
 public:
  static bg::GraphConfig Graph() {
    bg::GraphConfig g;
    g.members = 10000;
    return g;
  }
  /// Loaded once, shared by the read cases.
  static sql::Database& Db() {
    static sql::Database* db = [] {
      auto* loaded = new sql::Database;
      bg::CreateBgTables(*loaded);
      bg::LoadGraph(*loaded, Graph());
      return loaded;
    }();
    return *db;
  }
  /// The i-th member of a walk that visits every member and never two
  /// neighbours in a row.
  static std::int64_t Member(std::int64_t i) {
    return (i * 7919) % Graph().members;
  }
};

// ComputeFriends' query: a 20-row secondary-index probe plus its residual.
BENCHMARK_F(BgRdbmsFixture, FriendsProbe)(benchmark::State& state) {
  sql::Database& db = Db();
  const sql::Statement stmt = sql::Prepare(
      "SELECT inviteeID FROM Friendship WHERE inviterID = ? AND status = 2");
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db.Begin();
    benchmark::DoNotOptimize(sql::Execute(*txn, stmt, {sql::V(Member(i++))}));
    txn->Rollback();
  }
}

BENCHMARK_F(BgRdbmsFixture, PointRead)(benchmark::State& state) {
  sql::Database& db = Db();
  std::int64_t i = 0;
  for (auto _ : state) {
    auto txn = db.Begin();
    benchmark::DoNotOptimize(txn->SelectByPk("Users", {sql::V(Member(i++))}));
    txn->Rollback();
  }
}

// The whole graph into a fresh database, in LoadGraph's 2,000-row
// transactions; items are rows.
BENCHMARK_DEFINE_F(BgRdbmsFixture, BulkLoad)(benchmark::State& state) {
  std::int64_t rows = 0;
  for (auto _ : state) {
    auto db = std::make_unique<sql::Database>();
    bg::CreateBgTables(*db);
    rows += static_cast<std::int64_t>(bg::LoadGraph(*db, Graph()));
    state.PauseTiming();
    db.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK_REGISTER_F(BgRdbmsFixture, BulkLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iq

BENCHMARK_MAIN();
