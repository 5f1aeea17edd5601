// Quickstart: the IQ framework in ~80 lines.
//
// A CASQL deployment has three pieces:
//   1. an RDBMS            (iq::sql::Database - snapshot isolation),
//   2. an IQ-Server        (iq::IQServer - memcached + I/Q leases),
//   3. application sessions (iq::IQSession via iq::IQClient).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/iq_server.h"
#include "core/iq_client.h"
#include "rdbms/sql.h"

using namespace iq;

int main() {
  // -- 1. the database ----------------------------------------------------
  sql::Database db;
  db.CreateTable(sql::SchemaBuilder("Users")
                     .AddInt("id")
                     .AddText("name")
                     .AddInt("logins")
                     .PrimaryKey({"id"})
                     .Build());
  {
    auto txn = db.Begin();
    sql::Query(*txn, "INSERT INTO Users VALUES (1, 'alice', 0)");
    txn->Commit();
  }

  // -- 2. the cache server --------------------------------------------------
  IQServer server;
  IQClient client(server);

  // -- 3a. a read session: look up, recompute on miss, install under the
  //        I lease. Tokens and back-off live inside the session object.
  auto ReadUser = [&](const char* key) {
    auto session = client.NewSession();
    ClientGetResult got = session->Get(key);
    if (got.status == ClientGetResult::Status::kHit) {
      std::printf("  [read] cache hit:  %s = %s\n", key, got.value.c_str());
      return;
    }
    // Miss: this session alone recomputes (thundering-herd protection).
    auto txn = db.Begin();
    auto rows = sql::Query(*txn, "SELECT name, logins FROM Users WHERE id = 1");
    txn->Rollback();
    std::string value = *sql::AsText(rows.rows[0][0]) + "|" +
                        std::to_string(*sql::AsInt(rows.rows[0][1]));
    if (got.status == ClientGetResult::Status::kMissRecompute) {
      session->Put(key, value);  // dropped automatically if a writer raced us
    }
    std::printf("  [read] recomputed: %s = %s\n", key, value.c_str());
  };

  // -- 3b. a write session: quarantine the key, mutate the database, then
  //        commit - which deletes the quarantined key and releases leases.
  auto LoginUser = [&](const char* key) {
    auto session = client.NewSession();
    session->Quarantine(key);  // Q lease: readers cannot install stale data
    auto txn = db.Begin();
    sql::Query(*txn, "UPDATE Users SET logins = logins + 1 WHERE id = 1");
    if (txn->Commit() != sql::TxnResult::kOk) {
      session->Abort();  // leases released, current value left intact
      return;
    }
    session->Commit();  // invalidated key deleted atomically w.r.t. leases
    std::printf("  [write] logins incremented; %s invalidated\n", key);
  };

  std::printf("cold read (computes from the RDBMS, installs under I lease):\n");
  ReadUser("user:1");
  std::printf("warm read (served by the cache):\n");
  ReadUser("user:1");
  std::printf("write session (invalidate technique):\n");
  LoginUser("user:1");
  std::printf("read after write (recomputes the fresh value):\n");
  ReadUser("user:1");

  auto stats = server.Stats();
  std::printf(
      "\nserver stats: %llu I leases granted, %llu Q leases, "
      "%llu stale installs dropped\n",
      static_cast<unsigned long long>(stats.i_granted),
      static_cast<unsigned long long>(stats.q_inv_granted),
      static_cast<unsigned long long>(stats.stale_sets_dropped));
  return 0;
}
