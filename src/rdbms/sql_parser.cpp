// Recursive-descent parser for the SQL subset declared in sql.h.
#include <cctype>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "rdbms/sql.h"

namespace iq::sql {
namespace {

enum class TokKind {
  kIdent,
  kInt,
  kString,
  kPunct,  // ( ) , * = < > <= >= <> + -
  kParam,  // ?
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  std::int64_t int_value = 0;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) { Advance(); }

  const Token& Peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

  [[noreturn]] void Fail(const std::string& message) const {
    throw std::invalid_argument("SQL error at position " +
                                std::to_string(current_.pos) + ": " + message +
                                " (near '" + current_.text + "')");
  }

 private:
  void Advance() {
    while (i_ < sql_.size() && std::isspace(static_cast<unsigned char>(sql_[i_]))) {
      ++i_;
    }
    current_.pos = i_;
    if (i_ >= sql_.size()) {
      current_ = {TokKind::kEnd, "<end>", 0, i_};
      return;
    }
    char c = sql_[i_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i_;
      while (i_ < sql_.size() &&
             (std::isalnum(static_cast<unsigned char>(sql_[i_])) || sql_[i_] == '_')) {
        ++i_;
      }
      current_ = {TokKind::kIdent, sql_.substr(start, i_ - start), 0, start};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i_;
      while (i_ < sql_.size() && std::isdigit(static_cast<unsigned char>(sql_[i_]))) {
        ++i_;
      }
      Token t{TokKind::kInt, sql_.substr(start, i_ - start), 0, start};
      t.int_value = std::stoll(t.text);
      current_ = t;
      return;
    }
    if (c == '\'') {
      std::size_t start = ++i_;
      std::string out;
      while (i_ < sql_.size()) {
        if (sql_[i_] == '\'') {
          if (i_ + 1 < sql_.size() && sql_[i_ + 1] == '\'') {  // escaped quote
            out += '\'';
            i_ += 2;
            continue;
          }
          break;
        }
        out += sql_[i_++];
      }
      if (i_ >= sql_.size()) {
        throw std::invalid_argument("SQL error: unterminated string literal");
      }
      ++i_;  // closing quote
      current_ = {TokKind::kString, std::move(out), 0, start};
      return;
    }
    if (c == '?') {
      ++i_;
      current_ = {TokKind::kParam, "?", 0, i_ - 1};
      return;
    }
    // Multi-char operators.
    if ((c == '<' || c == '>') && i_ + 1 < sql_.size() &&
        (sql_[i_ + 1] == '=' || (c == '<' && sql_[i_ + 1] == '>'))) {
      current_ = {TokKind::kPunct, sql_.substr(i_, 2), 0, i_};
      i_ += 2;
      return;
    }
    static constexpr std::string_view kSingle = "(),*=<>+-";
    if (kSingle.find(c) != std::string_view::npos) {
      current_ = {TokKind::kPunct, std::string(1, c), 0, i_};
      ++i_;
      return;
    }
    throw std::invalid_argument(std::string("SQL error: unexpected character '") +
                                c + "'");
  }

  bool PrevWasOperand() const { return false; }

  const std::string& sql_;
  std::size_t i_ = 0;
  Token current_;
};

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

class Parser {
 public:
  explicit Parser(const std::string& sql) : lex_(sql) {}

  Statement Parse() {
    Statement stmt;
    std::string kw = ExpectKeyword();
    if (kw == "SELECT") {
      ParseSelect(stmt);
    } else if (kw == "INSERT") {
      ParseInsert(stmt);
    } else if (kw == "UPDATE") {
      ParseUpdate(stmt);
    } else if (kw == "DELETE") {
      ParseDelete(stmt);
    } else {
      lex_.Fail("expected SELECT, INSERT, UPDATE or DELETE");
    }
    if (lex_.Peek().kind != TokKind::kEnd) lex_.Fail("trailing tokens");
    stmt.param_count = params_;
    return stmt;
  }

 private:
  std::string ExpectKeyword() {
    if (lex_.Peek().kind != TokKind::kIdent) lex_.Fail("expected keyword");
    return Upper(lex_.Take().text);
  }

  std::string ExpectIdent() {
    if (lex_.Peek().kind != TokKind::kIdent) lex_.Fail("expected identifier");
    return lex_.Take().text;
  }

  void ExpectPunct(const std::string& p) {
    if (lex_.Peek().kind != TokKind::kPunct || lex_.Peek().text != p) {
      lex_.Fail("expected '" + p + "'");
    }
    lex_.Take();
  }

  bool AcceptPunct(const std::string& p) {
    if (lex_.Peek().kind == TokKind::kPunct && lex_.Peek().text == p) {
      lex_.Take();
      return true;
    }
    return false;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (lex_.Peek().kind == TokKind::kIdent && Upper(lex_.Peek().text) == kw) {
      lex_.Take();
      return true;
    }
    return false;
  }

  void ExpectKeywordIs(const std::string& kw) {
    if (!AcceptKeyword(kw)) lex_.Fail("expected " + kw);
  }

  Expr ParsePrimary() {
    Expr e;
    const Token& t = lex_.Peek();
    switch (t.kind) {
      case TokKind::kInt:
        e.kind = Expr::Kind::kLiteral;
        e.literal = V(lex_.Take().int_value);
        return e;
      case TokKind::kString:
        e.kind = Expr::Kind::kLiteral;
        e.literal = V(lex_.Take().text);
        return e;
      case TokKind::kParam:
        lex_.Take();
        e.kind = Expr::Kind::kParam;
        e.param_index = params_++;
        return e;
      case TokKind::kIdent:
        if (Upper(t.text) == "NULL") {
          lex_.Take();
          e.kind = Expr::Kind::kLiteral;
          e.literal = V();
          return e;
        }
        e.kind = Expr::Kind::kColumn;
        e.column = lex_.Take().text;
        return e;
      default:
        lex_.Fail("expected expression");
    }
  }

  Expr ParseExpr() {
    Expr lhs = ParsePrimary();
    while (lex_.Peek().kind == TokKind::kPunct &&
           (lex_.Peek().text == "+" || lex_.Peek().text == "-")) {
      bool add = lex_.Take().text == "+";
      Expr parent;
      parent.kind = add ? Expr::Kind::kAdd : Expr::Kind::kSub;
      parent.lhs = std::make_unique<Expr>(std::move(lhs));
      parent.rhs = std::make_unique<Expr>(ParsePrimary());
      lhs = std::move(parent);
    }
    return lhs;
  }

  CompareOp ParseCompareOp() {
    static constexpr std::pair<std::string_view, CompareOp> kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<", CompareOp::kLt},
        {"<=", CompareOp::kLe}, {">", CompareOp::kGt},  {">=", CompareOp::kGe}};
    const Token& t = lex_.Peek();
    if (t.kind != TokKind::kPunct) lex_.Fail("expected comparison");
    for (const auto& [text, op] : kOps) {
      if (t.text == text) {
        lex_.Take();
        return op;
      }
    }
    lex_.Fail("unknown comparison operator '" + t.text + "'");
  }

  void ParseWhere(Statement& stmt) {
    if (!AcceptKeyword("WHERE")) return;
    do {
      Predicate p;
      p.column = ExpectIdent();
      p.op = ParseCompareOp();
      p.value = ParseExpr();
      stmt.where.push_back(std::move(p));
    } while (AcceptKeyword("AND"));
  }

  void ParseSelect(Statement& stmt) {
    stmt.kind = StatementKind::kSelect;
    if (!AcceptPunct("*")) {
      do {
        stmt.select_columns.push_back(ExpectIdent());
      } while (AcceptPunct(","));
    }
    ExpectKeywordIs("FROM");
    stmt.table = ExpectIdent();
    ParseWhere(stmt);
  }

  void ParseInsert(Statement& stmt) {
    stmt.kind = StatementKind::kInsert;
    ExpectKeywordIs("INTO");
    stmt.table = ExpectIdent();
    if (AcceptPunct("(")) {
      do {
        stmt.insert_columns.push_back(ExpectIdent());
      } while (AcceptPunct(","));
      ExpectPunct(")");
    }
    ExpectKeywordIs("VALUES");
    ExpectPunct("(");
    do {
      stmt.insert_values.push_back(ParseExpr());
    } while (AcceptPunct(","));
    ExpectPunct(")");
  }

  void ParseUpdate(Statement& stmt) {
    stmt.kind = StatementKind::kUpdate;
    stmt.table = ExpectIdent();
    ExpectKeywordIs("SET");
    do {
      std::string col = ExpectIdent();
      ExpectPunct("=");
      stmt.set_exprs.emplace_back(std::move(col), ParseExpr());
    } while (AcceptPunct(","));
    ParseWhere(stmt);
  }

  void ParseDelete(Statement& stmt) {
    stmt.kind = StatementKind::kDelete;
    ExpectKeywordIs("FROM");
    stmt.table = ExpectIdent();
    ParseWhere(stmt);
  }

  Lexer lex_;
  int params_ = 0;
};

}  // namespace

Statement Prepare(const std::string& sql) { return Parser(sql).Parse(); }

}  // namespace iq::sql
