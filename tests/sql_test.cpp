#include <gtest/gtest.h>

#include "rdbms/sql.h"

namespace iq::sql {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.CreateTable(SchemaBuilder("Users")
                        .AddInt("id")
                        .AddText("name")
                        .AddInt("score")
                        .PrimaryKey({"id"})
                        .Index("score")
                        .Build());
    auto txn = db_.Begin();
    for (int i = 0; i < 10; ++i) {
      txn->Insert("Users", {V(i), V("user" + std::to_string(i)), V(i * 10)});
    }
    ASSERT_EQ(txn->Commit(), TxnResult::kOk);
  }

  QueryResult Run(const std::string& sql, std::vector<Value> params = {}) {
    auto txn = db_.Begin();
    auto r = Query(*txn, sql, params);
    txn->Commit();
    return r;
  }

  Database db_;
};

// ---- parser ------------------------------------------------------------------

TEST(SqlParser, ParsesSelectStar) {
  auto stmt = Prepare("SELECT * FROM t");
  EXPECT_EQ(stmt.kind, StatementKind::kSelect);
  EXPECT_EQ(stmt.table, "t");
  EXPECT_TRUE(stmt.select_columns.empty());
  EXPECT_TRUE(stmt.where.empty());
}

TEST(SqlParser, ParsesProjection) {
  auto stmt = Prepare("SELECT a, b, c FROM t");
  EXPECT_EQ(stmt.select_columns, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SqlParser, ParsesWhereConjunction) {
  auto stmt = Prepare("SELECT * FROM t WHERE a = 1 AND b <> 'x' AND c >= ?");
  ASSERT_EQ(stmt.where.size(), 3u);
  EXPECT_EQ(stmt.where[0].op, CompareOp::kEq);
  EXPECT_EQ(stmt.where[1].op, CompareOp::kNe);
  EXPECT_EQ(stmt.where[2].op, CompareOp::kGe);
  EXPECT_EQ(stmt.param_count, 1);
}

TEST(SqlParser, ParsesAllComparisonOps) {
  auto stmt = Prepare(
      "SELECT * FROM t WHERE a = 1 AND b <> 2 AND c < 3 AND d <= 4 AND e > 5 "
      "AND f >= 6");
  ASSERT_EQ(stmt.where.size(), 6u);
}

TEST(SqlParser, ParsesInsertWithColumnList) {
  auto stmt = Prepare("INSERT INTO t (a, b) VALUES (?, 'x')");
  EXPECT_EQ(stmt.kind, StatementKind::kInsert);
  EXPECT_EQ(stmt.insert_columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(stmt.insert_values.size(), 2u);
  EXPECT_EQ(stmt.param_count, 1);
}

TEST(SqlParser, ParsesInsertWithoutColumnList) {
  auto stmt = Prepare("INSERT INTO t VALUES (1, 2, 3)");
  EXPECT_TRUE(stmt.insert_columns.empty());
  EXPECT_EQ(stmt.insert_values.size(), 3u);
}

TEST(SqlParser, ParsesUpdateWithArithmeticSet) {
  auto stmt = Prepare("UPDATE t SET n = n + 1, v = ? WHERE id = ?");
  EXPECT_EQ(stmt.kind, StatementKind::kUpdate);
  ASSERT_EQ(stmt.set_exprs.size(), 2u);
  EXPECT_EQ(stmt.set_exprs[0].second.kind, Expr::Kind::kAdd);
  EXPECT_EQ(stmt.param_count, 2);
}

TEST(SqlParser, ParsesDelete) {
  auto stmt = Prepare("DELETE FROM t WHERE a = ? AND b = ?");
  EXPECT_EQ(stmt.kind, StatementKind::kDelete);
  EXPECT_EQ(stmt.where.size(), 2u);
}

TEST(SqlParser, ParsesNullLiteral) {
  auto stmt = Prepare("INSERT INTO t VALUES (NULL, 1)");
  EXPECT_TRUE(IsNull(stmt.insert_values[0].literal));
}

TEST(SqlParser, ParsesEscapedQuotes) {
  auto stmt = Prepare("INSERT INTO t VALUES ('it''s')");
  EXPECT_EQ(AsText(stmt.insert_values[0].literal), "it's");
}

TEST(SqlParser, KeywordsAreCaseInsensitive) {
  auto stmt = Prepare("select * from t where a = 1");
  EXPECT_EQ(stmt.kind, StatementKind::kSelect);
}

TEST(SqlParser, RejectsGarbage) {
  EXPECT_THROW(Prepare("FROBNICATE t"), std::invalid_argument);
  EXPECT_THROW(Prepare("SELECT FROM"), std::invalid_argument);
  EXPECT_THROW(Prepare("SELECT * FROM t WHERE"), std::invalid_argument);
  EXPECT_THROW(Prepare("INSERT INTO t VALUES (1"), std::invalid_argument);
  EXPECT_THROW(Prepare("SELECT * FROM t extra"), std::invalid_argument);
  EXPECT_THROW(Prepare("SELECT * FROM t WHERE a = 'unterminated"),
               std::invalid_argument);
}

// ---- executor ----------------------------------------------------------------

TEST_F(SqlTest, SelectStarReturnsAllColumns) {
  auto r = Run("SELECT * FROM Users WHERE id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"id", "name", "score"}));
  EXPECT_EQ(r.rows[0], (Row{V(3), V("user3"), V(30)}));
}

TEST_F(SqlTest, SelectProjectionReordersColumns) {
  auto r = Run("SELECT score, id FROM Users WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (Row{V(20), V(2)}));
}

TEST_F(SqlTest, SelectWithParams) {
  auto r = Run("SELECT name FROM Users WHERE id = ?", {V(7)});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], V("user7"));
}

TEST_F(SqlTest, SelectRangePredicateScans) {
  auto r = Run("SELECT id FROM Users WHERE score >= 50 AND score < 80");
  EXPECT_EQ(r.rows.size(), 3u);  // scores 50, 60, 70
}

TEST_F(SqlTest, SelectViaSecondaryIndex) {
  auto r = Run("SELECT id FROM Users WHERE score = 40");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], V(4));
}

TEST_F(SqlTest, SelectEmptyResult) {
  auto r = Run("SELECT * FROM Users WHERE id = 999");
  EXPECT_TRUE(r.rows.empty());
  EXPECT_TRUE(r.ok());
}

TEST_F(SqlTest, SelectUnknownTableIsNotFound) {
  auto r = Run("SELECT * FROM Nope");
  EXPECT_EQ(r.status, TxnResult::kNotFound);
}

TEST_F(SqlTest, SelectUnknownColumnThrows) {
  auto txn = db_.Begin();
  EXPECT_THROW(Query(*txn, "SELECT nope FROM Users"), std::invalid_argument);
}

TEST_F(SqlTest, InsertWithColumnList) {
  auto r = Run("INSERT INTO Users (id, name, score) VALUES (?, ?, ?)",
               {V(100), V("new"), V(5)});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.affected, 1u);
  auto check = Run("SELECT name FROM Users WHERE id = 100");
  EXPECT_EQ(check.rows[0][0], V("new"));
}

TEST_F(SqlTest, InsertPartialColumnsLeavesNull) {
  Run("INSERT INTO Users (id, name) VALUES (101, 'partial')");
  auto check = Run("SELECT score FROM Users WHERE id = 101");
  EXPECT_TRUE(IsNull(check.rows[0][0]));
}

TEST_F(SqlTest, InsertDuplicateKeyFails) {
  auto r = Run("INSERT INTO Users VALUES (1, 'dup', 0)");
  EXPECT_EQ(r.status, TxnResult::kDuplicateKey);
}

TEST_F(SqlTest, InsertArityMismatchThrows) {
  auto txn = db_.Begin();
  EXPECT_THROW(Query(*txn, "INSERT INTO Users VALUES (1, 'x')"),
               std::invalid_argument);
}

TEST_F(SqlTest, UpdateSetsLiteralValues) {
  auto r = Run("UPDATE Users SET name = 'renamed' WHERE id = 5");
  EXPECT_EQ(r.affected, 1u);
  EXPECT_EQ(Run("SELECT name FROM Users WHERE id = 5").rows[0][0], V("renamed"));
}

TEST_F(SqlTest, UpdateArithmeticOnOldValue) {
  Run("UPDATE Users SET score = score + 5 WHERE id = 3");
  EXPECT_EQ(Run("SELECT score FROM Users WHERE id = 3").rows[0][0], V(35));
  Run("UPDATE Users SET score = score - 10 WHERE id = 3");
  EXPECT_EQ(Run("SELECT score FROM Users WHERE id = 3").rows[0][0], V(25));
}

TEST_F(SqlTest, UpdateWithParamsInSetAndWhere) {
  auto r = Run("UPDATE Users SET score = score + ? WHERE id = ?",
               {V(100), V(2)});
  EXPECT_EQ(r.affected, 1u);
  EXPECT_EQ(Run("SELECT score FROM Users WHERE id = 2").rows[0][0], V(120));
}

TEST_F(SqlTest, UpdateMultipleRows) {
  auto r = Run("UPDATE Users SET score = 0 WHERE score > 50");
  EXPECT_EQ(r.affected, 4u);  // 60, 70, 80, 90
}

TEST_F(SqlTest, UpdateZeroRowsIsOk) {
  auto r = Run("UPDATE Users SET score = 1 WHERE id = 12345");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.affected, 0u);
}

TEST_F(SqlTest, PointWriteWhoseResidualFailsTouchesNothing) {
  auto txn = db_.Begin();
  auto u = Query(*txn, "UPDATE Users SET score = 1 WHERE id = 4 AND score = 999");
  EXPECT_TRUE(u.ok());
  EXPECT_EQ(u.affected, 0u);
  auto d = Query(*txn, "DELETE FROM Users WHERE id = 4 AND score = 999");
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.affected, 0u);
  // Neither statement left an intent on row 4: another writer takes it.
  auto other = db_.Begin();
  EXPECT_EQ(Query(*other, "UPDATE Users SET score = 41 WHERE id = 4").affected,
            1u);
  EXPECT_EQ(other->Commit(), TxnResult::kOk);
  EXPECT_EQ(txn->Commit(), TxnResult::kOk);
  EXPECT_EQ(Run("SELECT score FROM Users WHERE id = 4").rows[0][0], V(41));
}

TEST_F(SqlTest, SwapSemanticsUsePreUpdateRow) {
  // "SET a = b, b = a" must read both from the pre-update row.
  db_.CreateTable(SchemaBuilder("P")
                      .AddInt("id")
                      .AddInt("a")
                      .AddInt("b")
                      .PrimaryKey({"id"})
                      .Build());
  Run("INSERT INTO P VALUES (1, 10, 20)");
  Run("UPDATE P SET a = b, b = a WHERE id = 1");
  auto r = Run("SELECT a, b FROM P WHERE id = 1");
  EXPECT_EQ(r.rows[0], (Row{V(20), V(10)}));
}

TEST_F(SqlTest, DeleteRemovesMatchingRows) {
  auto r = Run("DELETE FROM Users WHERE score < 30");
  EXPECT_EQ(r.affected, 3u);  // 0, 10, 20
  EXPECT_EQ(Run("SELECT * FROM Users").rows.size(), 7u);
}

TEST_F(SqlTest, DeleteByCompositePredicate) {
  auto r = Run("DELETE FROM Users WHERE id = ? AND score = ?", {V(4), V(40)});
  EXPECT_EQ(r.affected, 1u);
}

TEST_F(SqlTest, MissingParameterThrows) {
  auto txn = db_.Begin();
  EXPECT_THROW(Query(*txn, "SELECT * FROM Users WHERE id = ?", {}),
               std::invalid_argument);
}

TEST_F(SqlTest, PreparedStatementIsReusable) {
  auto stmt = Prepare("SELECT name FROM Users WHERE id = ?");
  auto txn = db_.Begin();
  for (int i = 0; i < 5; ++i) {
    auto r = Execute(*txn, stmt, {V(i)});
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0], V("user" + std::to_string(i)));
  }
  txn->Rollback();
}

TEST_F(SqlTest, UpdatesAreTransactional) {
  auto txn = db_.Begin();
  Query(*txn, "UPDATE Users SET score = 999 WHERE id = 1");
  txn->Rollback();
  EXPECT_EQ(Run("SELECT score FROM Users WHERE id = 1").rows[0][0], V(10));
}

TEST_F(SqlTest, CompositePrimaryKeyPointLookup) {
  db_.CreateTable(SchemaBuilder("Edge")
                      .AddInt("src")
                      .AddInt("dst")
                      .AddInt("w")
                      .PrimaryKey({"src", "dst"})
                      .Build());
  Run("INSERT INTO Edge VALUES (1, 2, 7)");
  Run("INSERT INTO Edge VALUES (2, 1, 9)");
  auto r = Run("SELECT w FROM Edge WHERE src = 1 AND dst = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], V(7));
}

}  // namespace
}  // namespace iq::sql
