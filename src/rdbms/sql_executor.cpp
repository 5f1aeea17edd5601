// Executor: plans and runs a prepared Statement against a Transaction.
//
// Planning is deliberately simple: full primary-key equality => point
// read/write; single-column equality on an indexed column => index lookup
// with residual filter; otherwise a visible scan. A statement resolves its
// table once, and a point UPDATE or DELETE checks its residual predicate
// inside the write, so it finds its row once.
#include <functional>
#include <stdexcept>

#include "rdbms/sql.h"

namespace iq::sql {
namespace {

Value EvalExpr(const Expr& e, const std::vector<Value>& params,
               const TableSchema* schema, const Row* row) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam:
      if (e.param_index < 0 ||
          static_cast<std::size_t>(e.param_index) >= params.size()) {
        throw std::invalid_argument("missing SQL parameter " +
                                    std::to_string(e.param_index + 1));
      }
      return params[static_cast<std::size_t>(e.param_index)];
    case Expr::Kind::kColumn: {
      if (schema == nullptr || row == nullptr) {
        throw std::invalid_argument("column reference '" + e.column +
                                    "' not allowed here");
      }
      auto idx = schema->ColumnIndex(e.column);
      if (!idx) {
        throw std::invalid_argument("unknown column '" + e.column + "'");
      }
      return (*row)[*idx];
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub: {
      Value l = EvalExpr(*e.lhs, params, schema, row);
      Value r = EvalExpr(*e.rhs, params, schema, row);
      auto li = AsInt(l);
      auto ri = AsInt(r);
      if (!li || !ri) {
        throw std::invalid_argument("arithmetic on non-integer value");
      }
      return V(e.kind == Expr::Kind::kAdd ? *li + *ri : *li - *ri);
    }
  }
  return V();
}

bool Compare(const Value& lhs, CompareOp op, const Value& rhs) {
  // SQL three-valued logic collapsed: comparisons involving NULL are false
  // except explicit equality of two NULLs (sufficient for our workloads).
  if (IsNull(lhs) || IsNull(rhs)) {
    return op == CompareOp::kEq && IsNull(lhs) && IsNull(rhs);
  }
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

struct Plan {
  /// Full primary key assembled from equality predicates, if available.
  std::optional<Row> point_pk;
  /// Otherwise: an indexed column equality to seed the lookup.
  std::optional<std::pair<std::size_t, Value>> index_probe;
  /// Conjuncts to evaluate on each candidate (column idx, op, value).
  std::vector<std::tuple<std::size_t, CompareOp, Value>> residual;
};

Plan MakePlan(const TableSchema& schema, const std::vector<Predicate>& where,
              const std::vector<Value>& params) {
  Plan plan;
  // Resolve all predicates first (their value exprs may not reference rows).
  struct Resolved {
    std::size_t col;
    CompareOp op;
    Value value;
  };
  std::vector<Resolved> preds;
  preds.reserve(where.size());
  for (const auto& p : where) {
    auto idx = schema.ColumnIndex(p.column);
    if (!idx) throw std::invalid_argument("unknown column '" + p.column + "'");
    preds.push_back({*idx, p.op, EvalExpr(p.value, params, nullptr, nullptr)});
  }
  // Try to assemble the full primary key from equality conjuncts.
  Row pk(schema.primary_key.size());
  std::vector<bool> have(schema.primary_key.size(), false);
  for (const auto& p : preds) {
    if (p.op != CompareOp::kEq) continue;
    for (std::size_t k = 0; k < schema.primary_key.size(); ++k) {
      if (schema.primary_key[k] == p.col && !have[k]) {
        pk[k] = p.value;
        have[k] = true;
      }
    }
  }
  bool full_pk = !have.empty();
  for (bool h : have) full_pk = full_pk && h;
  if (full_pk) plan.point_pk = std::move(pk);
  // Otherwise look for an indexed equality column.
  if (!plan.point_pk) {
    for (const auto& p : preds) {
      if (p.op != CompareOp::kEq) continue;
      for (std::size_t col : schema.secondary_indexes) {
        if (col == p.col) {
          plan.index_probe = {col, p.value};
          break;
        }
      }
      if (plan.index_probe) break;
    }
  }
  for (const auto& p : preds) plan.residual.emplace_back(p.col, p.op, p.value);
  return plan;
}

bool MatchesResidual(const Plan& plan, const Row& row) {
  for (const auto& [col, op, value] : plan.residual) {
    if (!Compare(row[col], op, value)) return false;
  }
  return true;
}

/// All rows matching the plan, visible to the transaction.
std::vector<Row> FetchCandidates(Transaction& txn, Table& table,
                                 const Plan& plan) {
  auto matches = [&plan](const Row& r) { return MatchesResidual(plan, r); };
  std::vector<Row> rows;
  if (plan.point_pk) {
    auto row = txn.SelectByPk(table, *plan.point_pk);
    if (row && matches(*row)) rows.push_back(std::move(*row));
  } else if (plan.index_probe) {
    rows = txn.SelectWhereEq(table, plan.index_probe->first,
                             plan.index_probe->second);
    std::erase_if(rows, [&](const Row& r) { return !matches(r); });
  } else {
    rows = txn.SelectWhere(table, matches);
  }
  return rows;
}

QueryResult ExecSelect(Transaction& txn, const Statement& stmt, Table& table,
                       const std::vector<Value>& params) {
  const TableSchema& schema = table.schema();
  QueryResult result;
  Plan plan = MakePlan(schema, stmt.where, params);
  std::vector<Row> matched = FetchCandidates(txn, table, plan);
  // Projection.
  std::vector<std::size_t> proj;
  if (stmt.select_columns.empty()) {
    for (std::size_t i = 0; i < schema.columns.size(); ++i) proj.push_back(i);
    for (const auto& c : schema.columns) result.columns.push_back(c.name);
  } else {
    for (const auto& name : stmt.select_columns) {
      auto idx = schema.ColumnIndex(name);
      if (!idx) throw std::invalid_argument("unknown column '" + name + "'");
      proj.push_back(*idx);
      result.columns.push_back(name);
    }
  }
  result.rows.reserve(matched.size());
  for (const auto& r : matched) {
    Row out;
    out.reserve(proj.size());
    for (std::size_t i : proj) out.push_back(r[i]);
    result.rows.push_back(std::move(out));
  }
  return result;
}

QueryResult ExecInsert(Transaction& txn, const Statement& stmt, Table& table,
                       const std::vector<Value>& params) {
  const TableSchema& schema = table.schema();
  QueryResult result;
  Row row(schema.columns.size(), V());
  if (stmt.insert_columns.empty()) {
    if (stmt.insert_values.size() != schema.columns.size()) {
      throw std::invalid_argument("INSERT arity mismatch for '" + stmt.table + "'");
    }
    for (std::size_t i = 0; i < stmt.insert_values.size(); ++i) {
      row[i] = EvalExpr(stmt.insert_values[i], params, nullptr, nullptr);
    }
  } else {
    if (stmt.insert_values.size() != stmt.insert_columns.size()) {
      throw std::invalid_argument("INSERT column/value count mismatch");
    }
    for (std::size_t i = 0; i < stmt.insert_columns.size(); ++i) {
      auto idx = schema.ColumnIndex(stmt.insert_columns[i]);
      if (!idx) {
        throw std::invalid_argument("unknown column '" + stmt.insert_columns[i] + "'");
      }
      row[*idx] = EvalExpr(stmt.insert_values[i], params, nullptr, nullptr);
    }
  }
  result.status = txn.Insert(table, std::move(row));
  result.affected = result.ok() ? 1 : 0;
  return result;
}

/// Writes every row the plan matches with `write(pk, match)`. A point plan
/// makes one write that checks the residual itself; kNotFound there means
/// no visible row matched.
template <typename Write>
QueryResult WriteMatching(Transaction& txn, Table& table, const Plan& plan,
                          const Write& write) {
  QueryResult result;
  if (plan.point_pk) {
    TxnResult status = write(*plan.point_pk, [&plan](const Row& r) {
      return MatchesResidual(plan, r);
    });
    if (status != TxnResult::kNotFound) result.status = status;
    result.affected = status == TxnResult::kOk ? 1 : 0;
    return result;
  }
  for (const auto& r : FetchCandidates(txn, table, plan)) {
    TxnResult status = write(table.schema().PrimaryKeyOf(r), {});
    if (status != TxnResult::kOk) {
      result.status = status;
      return result;
    }
    ++result.affected;
  }
  return result;
}

QueryResult ExecUpdate(Transaction& txn, const Statement& stmt, Table& table,
                       const std::vector<Value>& params) {
  const TableSchema& schema = table.schema();
  Plan plan = MakePlan(schema, stmt.where, params);
  // Resolve SET target columns once.
  std::vector<std::pair<std::size_t, const Expr*>> sets;
  sets.reserve(stmt.set_exprs.size());
  for (const auto& [col, expr] : stmt.set_exprs) {
    auto idx = schema.ColumnIndex(col);
    if (!idx) throw std::invalid_argument("unknown column '" + col + "'");
    sets.emplace_back(*idx, &expr);
  }
  auto assign = [&](Row& row) {
    // Evaluate all SET expressions against the pre-update row (SQL
    // semantics: "SET a = b, b = a" swaps), then assign.
    std::vector<Value> values;
    values.reserve(sets.size());
    for (const auto& [idx, expr] : sets) {
      values.push_back(EvalExpr(*expr, params, &schema, &row));
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
      row[sets[i].first] = std::move(values[i]);
    }
  };
  return WriteMatching(
      txn, table, plan,
      [&](const Row& pk, const std::function<bool(const Row&)>& match) {
        return txn.UpdateByPk(table, pk, assign, match);
      });
}

QueryResult ExecDelete(Transaction& txn, const Statement& stmt, Table& table,
                       const std::vector<Value>& params) {
  Plan plan = MakePlan(table.schema(), stmt.where, params);
  return WriteMatching(
      txn, table, plan,
      [&](const Row& pk, const std::function<bool(const Row&)>& match) {
        return txn.DeleteByPk(table, pk, match);
      });
}

}  // namespace

QueryResult Execute(Transaction& txn, const Statement& stmt,
                    const std::vector<Value>& params) {
  if (static_cast<int>(params.size()) < stmt.param_count) {
    throw std::invalid_argument("statement needs " +
                                std::to_string(stmt.param_count) +
                                " parameters, got " +
                                std::to_string(params.size()));
  }
  Table* table = txn.database().GetTable(stmt.table);
  if (table == nullptr) {
    QueryResult r;
    r.status = TxnResult::kNotFound;
    return r;
  }
  switch (stmt.kind) {
    case StatementKind::kSelect: return ExecSelect(txn, stmt, *table, params);
    case StatementKind::kInsert: return ExecInsert(txn, stmt, *table, params);
    case StatementKind::kUpdate: return ExecUpdate(txn, stmt, *table, params);
    case StatementKind::kDelete: return ExecDelete(txn, stmt, *table, params);
  }
  QueryResult r;
  r.status = TxnResult::kInvalidRow;
  return r;
}

QueryResult Query(Transaction& txn, const std::string& sql,
                  const std::vector<Value>& params) {
  return Execute(txn, Prepare(sql), params);
}

}  // namespace iq::sql
