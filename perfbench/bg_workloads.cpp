// bg_read and bg_write: closed-loop BG sessions (RDBMS transaction plus
// cache operations, paper Section 6.1) driven over real TCP connections
// into IQServers behind net::TcpServer on 127.0.0.1.
//
// Each client thread owns its connections and waits for every reply, as
// BG's users do. The cache is warmed in-process before the window, so the
// window starts from the paper's warm-cache premise and every request the
// servers see during it was counted by a client.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bg/actions.h"
#include "bg/social_graph.h"
#include "bg/workload.h"
#include "casql/casql.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace iq;

struct BgShape {
  const char* name;
  bg::Mix mix;
  /// Exponent handed to ZipfianGenerator over the member ids.
  double zipf_exponent;
  casql::Technique technique;
  int clients;
  /// TCP servers (one worker each); more than one puts a ShardedBackend
  /// ring in front of them on every client.
  int servers;
  /// CacheStore byte budget per server; 0 = unbounded.
  std::size_t budget_per_server;
};

constexpr bg::MemberId kMembers = 10000;
constexpr int kWarmThreads = 3;
constexpr double kSettleSeconds = 1.0;
/// Share of read actions whose results the validator checks.
constexpr double kValidatedReadShare = 0.1;

/// Bytes the warm bg_write working set occupies in an unbounded tier
/// (profile, friend, pending, top-k and comment keys of 10,000 members;
/// measured with this graph shape). bg_write gives the tier half of it.
constexpr std::size_t kWarmWorkingSetBytes = 14'000'000;

bg::GraphConfig Graph() {
  bg::GraphConfig g;
  g.members = kMembers;
  return g;
}

bool IsWrite(bg::ActionKind k) {
  return k == bg::ActionKind::kInviteFriend ||
         k == bg::ActionKind::kAcceptFriend ||
         k == bg::ActionKind::kRejectFriend ||
         k == bg::ActionKind::kThawFriendship;
}

/// bg::RunWorkload's action picker, which is internal to src/bg.
bg::ActionKind PickAction(const bg::Mix& mix, Rng& rng) {
  double u = rng.NextDouble();
  double acc = 0;
  for (std::size_t i = 0; i < mix.probability.size(); ++i) {
    acc += mix.probability[i];
    if (u < acc) return static_cast<bg::ActionKind>(i);
  }
  return bg::ActionKind::kViewProfile;
}

std::string ShardName(int i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

/// The sessions one client thread runs BG actions through over one
/// backend. Writes and a sampled share of reads go through the logging
/// executor: the validator must see every write, while logging every read
/// would cost gigabytes over a long window.
struct ActionStack {
  std::unique_ptr<casql::CasqlSystem> system;
  std::unique_ptr<bg::BGActions> logged;
  std::unique_ptr<bg::BGActions> unlogged;
};

/// One client thread's connections and action stacks. The plain stack runs
/// the settle window and untraced runs; the traced stack, built only for
/// traced runs, reuses the same connections with TracingBackends spliced in.
struct BgClient {
  std::vector<std::unique_ptr<net::TcpChannel>> tcp;
  std::vector<std::unique_ptr<CountingChannel>> counted;
  std::vector<std::unique_ptr<net::RemoteBackend>> remotes;
  std::unique_ptr<ShardedBackend> router;
  ActionStack plain;

  std::vector<std::unique_ptr<TracingBackend>> shard_tracers;
  std::unique_ptr<ShardedBackend> traced_router;
  std::unique_ptr<TracingBackend> client_tracer;
  ActionStack traced;
  CallCounts calls;  // what the traced stack's decorators passed on

  bg::ThreadLog log;
  SpanLog spans;
  Rng rng{0};

  std::uint64_t requests() const {
    std::uint64_t n = 0;
    for (const auto& c : counted) n += c->requests();
    return n;
  }
  bool connected() const {
    return std::all_of(tcp.begin(), tcp.end(),
                       [](const auto& t) { return t->connected(); });
  }
  bg::BGActions::RestartStats restarts() const {
    bg::BGActions::RestartStats r;
    for (const ActionStack* s : {&plain, &traced}) {
      if (!s->system) continue;
      r.Merge(s->logged->restart_stats());
      r.Merge(s->unlogged->restart_stats());
    }
    return r;
  }
};

/// Everything one set-up builds. Members are declared in construction
/// order, so destruction closes clients before servers and servers before
/// the database.
struct BgTier {
  sql::Database db;
  bg::ActionPools pools;
  std::vector<std::unique_ptr<IQServer>> servers;
  std::vector<std::unique_ptr<net::TcpServer>> tcp_servers;
  std::vector<std::unique_ptr<BgClient>> clients;
  bg::Validator validator;
};

std::unique_ptr<ShardedBackend> MakeRouter(
    const std::vector<KvsBackend*>& children) {
  std::vector<ShardedBackend::Shard> shards;
  for (std::size_t i = 0; i < children.size(); ++i) {
    shards.push_back({ShardName(static_cast<int>(i)), children[i], 1, {}, {},
                      {}, {}});
  }
  return std::make_unique<ShardedBackend>(std::move(shards));
}

casql::CasqlConfig CasqlFor(const BgShape& shape, std::uint64_t seed) {
  casql::CasqlConfig cfg;
  cfg.technique = shape.technique;
  cfg.consistency = casql::Consistency::kIQ;
  cfg.client.seed = seed;
  return cfg;
}

/// Read every cacheable key once, in-process, spread over a few threads.
void WarmTier(BgTier& tier, const BgShape& shape) {
  std::vector<KvsBackend*> children;
  for (auto& s : tier.servers) children.push_back(s.get());
  std::unique_ptr<ShardedBackend> router =
      children.size() > 1 ? MakeRouter(children) : nullptr;
  KvsBackend& backend =
      router ? static_cast<KvsBackend&>(*router) : *tier.servers[0];
  const bg::GraphConfig graph = Graph();
  const std::int64_t resources =
      graph.members * static_cast<std::int64_t>(graph.resources_per_member);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWarmThreads; ++t) {
    threads.emplace_back([&, t] {
      casql::CasqlSystem system(tier.db, backend, CasqlFor(shape, 7 + t));
      bg::ActionPools no_pools;
      bg::BGActions actions(system, no_pools, graph, nullptr, Rng(11 + t));
      for (bg::MemberId id = t; id < graph.members; id += kWarmThreads) {
        actions.ViewProfile(id);
        actions.ListFriends(id);
        actions.ViewFriendRequests(id);
        actions.ViewTopKResources(id);
      }
      for (std::int64_t r = t; r < resources; r += kWarmThreads) {
        actions.ViewComments(r);
      }
    });
  }
  for (auto& th : threads) th.join();
}

ActionStack MakeStack(BgTier& tier, const BgShape& shape, KvsBackend& backend,
                      bg::ThreadLog& log, Rng& seeds) {
  ActionStack s;
  s.system = std::make_unique<casql::CasqlSystem>(tier.db, backend,
                                                  CasqlFor(shape, seeds.Next()));
  s.logged = std::make_unique<bg::BGActions>(*s.system, tier.pools, Graph(),
                                             &log, seeds.Fork());
  s.unlogged = std::make_unique<bg::BGActions>(*s.system, tier.pools, Graph(),
                                               nullptr, seeds.Fork());
  return s;
}

bool ConnectClient(BgTier& tier, const BgShape& shape, BgClient& c,
                   bool traced, std::uint64_t seed) {
  std::vector<KvsBackend*> remotes;
  for (auto& tcp_server : tier.tcp_servers) {
    std::string error;
    auto ch = net::TcpChannel::Connect("127.0.0.1", tcp_server->port(), &error);
    if (!ch) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", error.c_str());
      return false;
    }
    c.counted.push_back(std::make_unique<CountingChannel>(*ch));
    c.remotes.push_back(std::make_unique<net::RemoteBackend>(*c.counted.back()));
    c.tcp.push_back(std::move(ch));
    remotes.push_back(c.remotes.back().get());
  }
  KvsBackend* plain = remotes[0];
  if (remotes.size() > 1) {
    c.router = MakeRouter(remotes);
    plain = c.router.get();
  }
  Rng seeds(seed);
  c.rng = seeds.Fork();
  c.plain = MakeStack(tier, shape, *plain, c.log, seeds);
  if (!traced) return true;

  KvsBackend* inner = remotes[0];
  if (remotes.size() > 1) {
    std::vector<KvsBackend*> children;
    for (KvsBackend* r : remotes) {
      c.shard_tracers.push_back(std::make_unique<TracingBackend>(*r, Layer::kShard, c.calls));
      children.push_back(c.shard_tracers.back().get());
    }
    c.traced_router = MakeRouter(children);
    inner = c.traced_router.get();
  }
  c.client_tracer =
      std::make_unique<TracingBackend>(*inner, Layer::kClient, c.calls);
  c.traced = MakeStack(tier, shape, *c.client_tracer, c.log, seeds);
  return true;
}

std::unique_ptr<BgTier> SetUp(const BgShape& shape, bool traced,
                              std::uint64_t seed) {
  auto tier = std::make_unique<BgTier>();
  const bg::GraphConfig graph = Graph();
  bg::CreateBgTables(tier->db);
  bg::LoadGraph(tier->db, graph);
  tier->pools.SeedFromGraph(graph);
  for (int i = 0; i < shape.servers; ++i) {
    CacheStore::Config store;
    store.memory_budget_bytes = shape.budget_per_server;
    tier->servers.push_back(std::make_unique<IQServer>(store, IQServer::Config{}));
    net::TcpServer::Config net_config;
    net_config.workers = 1;
    tier->tcp_servers.push_back(
        std::make_unique<net::TcpServer>(*tier->servers.back(), net_config));
    std::string error;
    if (!StartPinned(*tier->tcp_servers.back(), i, &error)) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n", error.c_str());
      return nullptr;
    }
  }
  WarmTier(*tier, shape);
  Rng seeds(seed);
  for (int i = 0; i < shape.clients; ++i) {
    tier->clients.push_back(std::make_unique<BgClient>());
    if (!ConnectClient(*tier, shape, *tier->clients.back(), traced,
                       seeds.Next())) {
      return nullptr;
    }
  }
  bg::SeedValidator(tier->validator, graph);
  return tier;
}

/// Counters of every layer at one instant (all clients idle).
struct BgSnapshot {
  IQServerStats iq;
  CacheStats kvs;
  net::TcpServerStats net;
  sql::Database::Stats db;
  ShardedBackendStats router;
  std::uint64_t client_requests = 0;
  std::uint64_t shard_commit_calls = 0;  // traced stacks' child Commit/DaR
  std::uint64_t touched_commits = 0;     // traced stacks' logical commits
  std::map<pid_t, double> cpu;
};

BgSnapshot Snapshot(BgTier& tier) {
  BgSnapshot s;
  for (auto& server : tier.servers) {
    IQServerStats a = server->Stats();
    for (const IQStatsField& f : kIQStatsFields) s.iq.*(f.member) += a.*(f.member);
    CacheStats k = server->store().Stats();
    s.kvs.gets += k.gets;
    s.kvs.get_hits += k.get_hits;
    s.kvs.evictions += k.evictions;
    s.kvs.opt_hits += k.opt_hits;
  }
  for (auto& t : tier.tcp_servers) {
    net::TcpServerStats n = t->Stats();
    s.net.requests += n.requests;
    s.net.bytes_read += n.bytes_read;
    s.net.bytes_written += n.bytes_written;
  }
  s.db = tier.db.GetStats();
  for (auto& c : tier.clients) {
    s.client_requests += c->requests();
    s.shard_commit_calls += c->calls.shard_commits;
    s.touched_commits += c->calls.touched_commits;
    for (ShardedBackend* r : {c->router.get(), c->traced_router.get()}) {
      if (r == nullptr) continue;
      ShardedBackendStats rs = r->router_stats();
      s.router.shard_sessions += rs.shard_sessions;
      s.router.fanout_commits += rs.fanout_commits;
      s.router.fanout_aborts += rs.fanout_aborts;
      s.router.cross_shard_sessions += rs.cross_shard_sessions;
      s.router.transport_errors += rs.transport_errors;
    }
  }
  s.cpu = ThreadCpuSeconds();
  return s;
}

struct BgWindow {
  BgWindow(double seconds, std::size_t min_slices)
      : latency(seconds, min_slices), write_latency(seconds, min_slices) {}

  Nanos elapsed = 0;
  std::uint64_t actions = 0;
  std::uint64_t writes = 0;
  std::uint64_t recorded = 0;      // actions traced with spans
  std::uint64_t declined = 0;      // actions that returned false
  std::uint64_t failed_reads = 0;  // read actions that returned no value
  SlicedSamples latency;
  SlicedSamples write_latency;
  bg::BGActions::RestartStats restarts;
  BgSnapshot before;
  BgSnapshot after;
  double client_cpu_s = 0;
  double server_cpu_s = 0;
};

/// One closed-loop window. A traced window runs the traced stacks and
/// records spans in every other two-second slice, so the slices without
/// spans are an interleaved, drift-free baseline for the tracing overhead.
BgWindow RunBgWindow(BgTier& tier, const BgShape& shape, double seconds,
                     bool traced) {
  const auto n = static_cast<std::size_t>(shape.clients);
  const std::size_t min_slices = traced ? 2 : 1;
  std::vector<SlicedSamples> lat(n, SlicedSamples(seconds, min_slices));
  std::vector<SlicedSamples> wlat(n, SlicedSamples(seconds, min_slices));
  std::vector<std::uint64_t> recorded(n, 0);
  std::vector<std::uint64_t> declined(n, 0);
  std::vector<std::uint64_t> failed_reads(n, 0);
  std::vector<bg::BGActions::RestartStats> restarts_before;
  for (auto& c : tier.clients) restarts_before.push_back(c->restarts());

  BgWindow w(seconds, min_slices);
  w.before = Snapshot(tier);
  Window run = RunWindow(
      shape.clients, shape.servers, seconds,
      [&](int i, const std::atomic<bool>& stop, Nanos start) {
        auto idx = static_cast<std::size_t>(i);
        BgClient& c = *tier.clients[idx];
        ActionStack& stack = traced ? c.traced : c.plain;
        ZipfianGenerator zipf(static_cast<std::uint64_t>(kMembers),
                              shape.zipf_exponent);
        while (!stop.load(std::memory_order_acquire)) {
          bg::ActionKind kind = PickAction(shape.mix, c.rng);
          auto member = static_cast<bg::MemberId>(zipf.Next(c.rng));
          bool log = IsWrite(kind) || c.rng.NextBool(kValidatedReadShare);
          Nanos t0 = Now();
          bool record = traced && lat[idx].SliceOf(t0 - start) % 2 == 1;
          BindSpanLog(record ? &c.spans : nullptr);
          std::int32_t span = record ? c.spans.OpenAction() : -1;
          bool ok = (log ? *stack.logged : *stack.unlogged).Run(kind, member);
          if (record) c.spans.Close(span);
          Nanos t1 = Now();
          lat[idx].Add(t1 - start, t1 - t0);
          if (IsWrite(kind)) {
            wlat[idx].Add(t1 - start, t1 - t0);
          } else if (!ok) {
            ++failed_reads[idx];
          }
          if (!ok) ++declined[idx];
          if (record) ++recorded[idx];
        }
        BindSpanLog(nullptr);
      });
  w.after = Snapshot(tier);
  w.elapsed = run.elapsed;

  std::vector<pid_t> not_server = {ThisThreadId()};
  for (std::size_t i = 0; i < n; ++i) {
    w.latency.Merge(lat[i]);
    w.write_latency.Merge(wlat[i]);
    w.recorded += recorded[i];
    w.declined += declined[i];
    w.failed_reads += failed_reads[i];
    bg::BGActions::RestartStats now = tier.clients[i]->restarts();
    w.restarts.write_sessions +=
        now.write_sessions - restarts_before[i].write_sessions;
    w.restarts.total_q_restarts +=
        now.total_q_restarts - restarts_before[i].total_q_restarts;
    w.restarts.total_rdbms_restarts +=
        now.total_rdbms_restarts - restarts_before[i].total_rdbms_restarts;
    w.client_cpu_s += run.threads[i].cpu_s;
    not_server.push_back(run.threads[i].tid);
  }
  w.actions = w.latency.Count();
  w.writes = w.write_latency.Count();
  w.server_cpu_s = CpuDelta(w.before.cpu, w.after.cpu, not_server);
  return w;
}

/// Gates every window must pass.
void CheckWindow(BgTier& tier, const BgShape& shape, const BgWindow& w,
                 bool traced, Report& report) {
  const std::string at = std::string(shape.name) + ": ";
  std::uint64_t server_requests = w.after.net.requests - w.before.net.requests;
  std::uint64_t client_requests =
      w.after.client_requests - w.before.client_requests;
  report.Gate(server_requests == client_requests,
              at + "server handled " + std::to_string(server_requests) +
                  " requests, clients sent " + std::to_string(client_requests));
  bool connected = std::all_of(tier.clients.begin(), tier.clients.end(),
                               [](const auto& c) { return c->connected(); });
  report.Gate(connected, at + "a client connection saw a transport error");
  report.Gate(w.after.router.transport_errors == 0,
              at + "router counted transport errors");
  if (shape.servers > 1) {
    // A logical commit reaches one child per touched shard, so the
    // children's commits lie between the router's logical commits and that
    // plus its cross-shard sessions.
    std::uint64_t child = w.after.iq.commits - w.before.iq.commits;
    std::uint64_t logical =
        w.after.router.fanout_commits - w.before.router.fanout_commits;
    std::uint64_t cross = w.after.router.cross_shard_sessions -
                          w.before.router.cross_shard_sessions;
    report.Gate(child >= logical && child <= logical + cross,
                at + "children committed " + std::to_string(child) +
                    " times for " + std::to_string(logical) +
                    " logical commits (" + std::to_string(cross) +
                    " cross-shard sessions)");
    if (traced) {
      // The decorators saw every call, so the accounting must be exact:
      // every child commit the routers sent arrived, and the routers'
      // logical commits are the client commits that reached a shard.
      std::uint64_t sent =
          w.after.shard_commit_calls - w.before.shard_commit_calls;
      std::uint64_t touched = w.after.touched_commits - w.before.touched_commits;
      report.Gate(child == sent, at + "servers counted " + std::to_string(child) +
                                     " commits, routers sent " +
                                     std::to_string(sent));
      report.Gate(logical == touched,
                  at + "routers counted " + std::to_string(logical) +
                      " logical commits, " + std::to_string(touched) +
                      " client commits reached a shard");
    }
  }
}

/// Per-layer metrics of the traced window: span figures per recorded
/// action, counter figures per action of the whole window.
void LayerMetrics(BgTier& tier, const BgShape& shape, const BgWindow& w,
                  Report& report, RunOutput& out) {
  auto& m = out.per_layer;
  const double ops = static_cast<double>(w.actions);
  const double writes = static_cast<double>(w.writes);

  std::uint64_t action_spans = 0;
  std::uint64_t client_calls = 0;
  Nanos casql_self = 0;
  Nanos backend_time = 0;
  Nanos router_self = 0;
  std::vector<std::vector<Nanos>> verb_lat(kVerbCount);
  for (auto& c : tier.clients) {
    const std::vector<Span>& spans = c->spans.spans();
    std::vector<Nanos> self = SelfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.layer == Layer::kAction) {
        ++action_spans;
        casql_self += self[i];
      } else if (s.layer == Layer::kClient) {
        ++client_calls;
        backend_time += s.end - s.start;
        router_self += self[i];
        verb_lat[static_cast<std::size_t>(s.verb)].push_back(s.end - s.start);
      }
    }
  }
  report.Gate(action_spans == w.recorded && action_spans > 0,
              std::string(shape.name) + ": " + std::to_string(action_spans) +
                  " action spans for " + std::to_string(w.recorded) +
                  " traced actions");
  const double traced_ops = static_cast<double>(action_spans);
  const bool sharded = shape.servers > 1;

  m["casql.self_us_per_op"] = Micros(casql_self) / traced_ops;
  m["casql.q_restarts_per_write"] =
      Ratio(static_cast<double>(w.restarts.total_q_restarts), writes);
  m["casql.rdbms_restarts_per_write"] =
      Ratio(static_cast<double>(w.restarts.total_rdbms_restarts), writes);
  m["bg.declined_frac"] = static_cast<double>(w.declined) / ops;
  m["client.calls_per_op"] = static_cast<double>(client_calls) / traced_ops;
  m["client.backend_us_per_op"] = Micros(backend_time) / traced_ops;
  for (Verb v : {Verb::kIQget, Verb::kIQset, Verb::kQaRead, Verb::kSaR,
                 Verb::kQaReg, Verb::kCommit}) {
    auto& samples = verb_lat[static_cast<std::size_t>(v)];
    std::string base = std::string("client.") + VerbName(v);
    m[base + "_p50_us"] = Micros(Quantile(samples, 0.50));
    m[base + "_p99_us"] = Micros(Quantile(samples, 0.99));
  }
  if (sharded) {
    const ShardedBackendStats& a = w.after.router;
    const ShardedBackendStats& b = w.before.router;
    m["router.self_us_per_call"] =
        Micros(router_self) / static_cast<double>(client_calls);
    // casql keeps one session id per connection, so the router's cost is
    // the child ids it mints (a GenID round trip each), counted per action.
    m["router.shard_mints_per_op"] =
        static_cast<double>(a.shard_sessions - b.shard_sessions) / ops;
    m["router.cross_shard_frac"] = Ratio(
        static_cast<double>(a.cross_shard_sessions - b.cross_shard_sessions),
        static_cast<double>(a.fanout_commits - b.fanout_commits +
                            a.fanout_aborts - b.fanout_aborts));
  }

  const double requests =
      static_cast<double>(w.after.net.requests - w.before.net.requests);
  m["net.requests_per_op"] = requests / ops;
  m["net.bytes_per_request"] =
      Ratio(static_cast<double>(w.after.net.bytes_read - w.before.net.bytes_read +
                                w.after.net.bytes_written -
                                w.before.net.bytes_written),
            requests);
  m["net.server_cpu_frac"] = w.server_cpu_s / (Seconds(w.elapsed) * shape.servers);
  m["net.client_cpu_frac"] =
      w.client_cpu_s / (Seconds(w.elapsed) * shape.clients);

  const IQServerStats& a = w.after.iq;
  const IQServerStats& b = w.before.iq;
  m["leases.i_granted_per_op"] = static_cast<double>(a.i_granted - b.i_granted) / ops;
  m["leases.backoffs_per_op"] = static_cast<double>(a.backoffs - b.backoffs) / ops;
  m["leases.q_rejected_per_write"] =
      Ratio(static_cast<double>(a.q_rejected - b.q_rejected), writes);
  m["leases.stale_sets_dropped"] =
      static_cast<double>(a.stale_sets_dropped - b.stale_sets_dropped);

  const CacheStats& ka = w.after.kvs;
  const CacheStats& kb = w.before.kvs;
  const double gets = static_cast<double>(ka.gets - kb.gets);
  m["kvs.hit_ratio"] = Ratio(static_cast<double>(ka.get_hits - kb.get_hits), gets);
  m["kvs.opt_hit_ratio"] = Ratio(static_cast<double>(ka.opt_hits - kb.opt_hits), gets);
  m["kvs.evictions_per_op"] = static_cast<double>(ka.evictions - kb.evictions) / ops;

  const double txns = static_cast<double>(w.after.db.txns_started -
                                          w.before.db.txns_started);
  m["rdbms.txns_per_op"] = txns / ops;
  m["rdbms.conflict_ratio"] =
      Ratio(static_cast<double>(w.after.db.conflicts - w.before.db.conflicts), txns);

  // Odd slices recorded spans, even ones did not.
  m["trace.overhead_frac"] =
      1.0 - w.latency.MedianRate(2, 1) / w.latency.MedianRate(2, 0);
}

void RunBg(const BgShape& shape, const Options& options, Report& report,
           RunOutput& out) {
  std::unique_ptr<BgTier> tier;
  std::vector<double> setup_s;
  double rss_mb = 0;
  for (int i = 0; i < kSetups; ++i) {
    tier.reset();
    Nanos t0 = Now();
    tier = SetUp(shape, options.trace, options.seed);
    setup_s.push_back(Seconds(Now() - t0));
    if (!tier) {
      report.Gate(false, std::string(shape.name) + ": set-up failed");
      return;
    }
    rss_mb = RssMegabytes();
  }

  // The cache settles under the workload's own skew before the measured
  // window.
  BgWindow settle = RunBgWindow(*tier, shape, kSettleSeconds, false);
  CheckWindow(*tier, shape, settle, false, report);
  BgWindow w = RunBgWindow(*tier, shape, options.seconds, options.trace);
  CheckWindow(*tier, shape, w, options.trace, report);
  report.attempted += w.actions;
  report.failed += w.failed_reads;
  if (options.trace) {
    LayerMetrics(*tier, shape, w, report, out);
  } else {
    auto& e = out.end_to_end;
    e["setup_s"] = Median(setup_s);
    e["ops_per_s"] = static_cast<double>(w.actions) / Seconds(w.elapsed);
    e["op_p50_us"] = w.latency.MedianQuantileUs(0.50);
    e["op_p99_us"] = w.latency.MedianQuantileUs(0.99);
    e["write_p50_us"] = w.write_latency.MedianQuantileUs(0.50);
    e["write_p99_us"] = w.write_latency.MedianQuantileUs(0.99);
    e["rss_mb"] = rss_mb;
  }

  for (auto& c : tier->clients) tier->validator.Absorb(std::move(c->log));
  bg::ValidationReport v = tier->validator.Validate();
  std::printf("%s: %llu reads validated, %llu unpredictable\n", shape.name,
              static_cast<unsigned long long>(v.reads_checked),
              static_cast<unsigned long long>(v.unpredictable));
  report.Gate(v.reads_checked > 0 && v.unpredictable == 0,
              std::string(shape.name) + ": " + std::to_string(v.unpredictable) +
                  " unpredictable reads of " + std::to_string(v.reads_checked));
}

}  // namespace

void RunBgRead(const Options& options, Report& report, RunOutput& out) {
  // Table 8's premise: a low-write mix over a warm, unbounded cache, so
  // nearly every action is one IQget hit through the whole TCP stack.
  BgShape shape{"bg_read", bg::LowWriteMix(), 1.0 - 0.27,
                casql::Technique::kInvalidate, 3, 1, 0};
  RunBg(shape, options, report, out);
}

void RunBgWrite(const Options& options, Report& report, RunOutput& out) {
  // Writes, leases and misses: refresh technique (Q leases can conflict),
  // high skew, a tier that holds about half the warm working set, and two
  // servers behind a ShardedBackend ring.
  BgShape shape{"bg_write", bg::HighWriteMix(), 0.99,
                casql::Technique::kRefresh, 2, 2, kWarmWorkingSetBytes / 4};
  RunBg(shape, options, report, out);
}

}  // namespace perfbench
