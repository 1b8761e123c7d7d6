// Lexer and parser tests for the SQL layer: token classification, statement
// structure (including the paper's Listing 2-4 statements verbatim), and a
// corpus of malformed inputs that must fail with InvalidArgument rather than
// crash or mis-parse.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace relgraph::sql {
namespace {

// ---------------------------------------------------------------- lexer

TEST(SqlLexer, ClassifiesBasicTokens) {
  std::vector<Token> toks;
  ASSERT_TRUE(
      Lexer::Tokenize("select nid, d2s from TVisited where f = 0", &toks).ok());
  ASSERT_EQ(toks.size(), 11u);  // 10 tokens + end
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_EQ(toks[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[1].text, "nid");
  EXPECT_EQ(toks[2].kind, TokenKind::kComma);
  EXPECT_EQ(toks[9].kind, TokenKind::kInteger);
  EXPECT_EQ(toks[9].int_value, 0);
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(SqlLexer, KeywordsAreCaseInsensitive) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("SeLeCt FrOm MeRgE", &toks).ok());
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_TRUE(toks[1].IsKeyword("FROM"));
  EXPECT_TRUE(toks[2].IsKeyword("MERGE"));
}

TEST(SqlLexer, IdentifiersKeepCase) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("TVisited", &toks).ok());
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "TVisited");
}

TEST(SqlLexer, NumbersIntAndFloat) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("42 3.5 0", &toks).ok());
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_EQ(toks[2].int_value, 0);
}

TEST(SqlLexer, StringLiteralWithEscapedQuote) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("'it''s'", &toks).ok());
  EXPECT_EQ(toks[0].kind, TokenKind::kString);
  EXPECT_EQ(toks[0].text, "it's");
}

TEST(SqlLexer, Parameters) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize(":mid + :minCost", &toks).ok());
  EXPECT_EQ(toks[0].kind, TokenKind::kParameter);
  EXPECT_EQ(toks[0].text, "mid");
  EXPECT_EQ(toks[2].text, "minCost");
}

TEST(SqlLexer, TwoCharOperators) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("<= >= <> != < >", &toks).ok());
  EXPECT_EQ(toks[0].kind, TokenKind::kLe);
  EXPECT_EQ(toks[1].kind, TokenKind::kGe);
  EXPECT_EQ(toks[2].kind, TokenKind::kNe);
  EXPECT_EQ(toks[3].kind, TokenKind::kNe);
  EXPECT_EQ(toks[4].kind, TokenKind::kLt);
  EXPECT_EQ(toks[5].kind, TokenKind::kGt);
}

TEST(SqlLexer, LineAndBlockComments) {
  std::vector<Token> toks;
  ASSERT_TRUE(Lexer::Tokenize("select -- comment\n 1 /* block */ + 2", &toks)
                  .ok());
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_EQ(toks[1].int_value, 1);
  EXPECT_EQ(toks[2].kind, TokenKind::kPlus);
}

TEST(SqlLexer, UnterminatedStringFails) {
  std::vector<Token> toks;
  EXPECT_FALSE(Lexer::Tokenize("'oops", &toks).ok());
}

TEST(SqlLexer, UnterminatedBlockCommentFails) {
  std::vector<Token> toks;
  EXPECT_FALSE(Lexer::Tokenize("select /* oops", &toks).ok());
}

TEST(SqlLexer, StrayCharacterFails) {
  std::vector<Token> toks;
  EXPECT_FALSE(Lexer::Tokenize("select @", &toks).ok());
}

// ---------------------------------------------------------------- parser

Status ParseOne(const std::string& in, std::unique_ptr<Statement>* out) {
  return Parser::Parse(in, out);
}

TEST(SqlParser, SimpleSelect) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("select nid, d2s from TVisited where f = 0", &stmt).ok());
  ASSERT_EQ(stmt->kind, StmtKind::kSelect);
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[0].expr->column, "nid");
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].table_name, "TVisited");
  ASSERT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.where->binary_op, BinaryOp::kEq);
}

TEST(SqlParser, SelectTopWithScalarSubquery) {
  // Listing 2(2), verbatim modulo whitespace.
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne(
                  "Select top 1 nid from TVisited where f=0 "
                  "and d2s=(select min(d2s) from TVisited where f=0)",
                  &stmt)
                  .ok());
  const SelectStmt& sel = *stmt->select;
  ASSERT_TRUE(sel.top.has_value());
  EXPECT_EQ(*sel.top, 1);
  // where = (f=0) AND (d2s = subquery)
  ASSERT_EQ(sel.where->binary_op, BinaryOp::kAnd);
  const Expr& rhs = *sel.where->right;
  EXPECT_EQ(rhs.binary_op, BinaryOp::kEq);
  EXPECT_EQ(rhs.right->kind, ExprKind::kSubquery);
}

TEST(SqlParser, WindowFunctionOverPartition) {
  // The core of Listing 2(3).
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("select out.tid, row_number() over (partition by out.tid "
               "order by out.cost + q.d2s) as rownum "
               "from TVisited q, TEdges out where q.nid = out.fid",
               &stmt)
          .ok());
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.items.size(), 2u);
  const Expr& win = *sel.items[1].expr;
  EXPECT_EQ(win.kind, ExprKind::kFuncCall);
  EXPECT_EQ(win.func_name, "ROW_NUMBER");
  ASSERT_NE(win.window, nullptr);
  ASSERT_EQ(win.window->partition_by.size(), 1u);
  EXPECT_EQ(win.window->partition_by[0]->qualifier, "out");
  ASSERT_EQ(win.window->order_by.size(), 1u);
  EXPECT_EQ(win.window->order_by[0]->expr->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(sel.items[1].alias, "rownum");
  ASSERT_EQ(sel.from.size(), 2u);
  EXPECT_EQ(sel.from[1].alias, "out");
}

TEST(SqlParser, DerivedTableWithColumnAliases) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("select nid from (select fid, tid from TEdges) "
                       "tmp (nid, other) where nid = 3",
                       &stmt)
                  .ok());
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].kind, FromKind::kSubquery);
  EXPECT_EQ(sel.from[0].alias, "tmp");
  ASSERT_EQ(sel.from[0].column_aliases.size(), 2u);
  EXPECT_EQ(sel.from[0].column_aliases[0], "nid");
}

TEST(SqlParser, DerivedTableRequiresAlias) {
  std::unique_ptr<Statement> stmt;
  EXPECT_FALSE(ParseOne("select 1 from (select 2)", &stmt).ok());
}

TEST(SqlParser, RowNumberRequiresOver) {
  std::unique_ptr<Statement> stmt;
  EXPECT_FALSE(ParseOne("select row_number() from TEdges", &stmt).ok());
}

TEST(SqlParser, InsertValues) {
  // Listing 2(1).
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("Insert into TVisited (nid, d2s, p2s, f) "
                       "values (:s, 0, :s, 0)",
                       &stmt)
                  .ok());
  ASSERT_EQ(stmt->kind, StmtKind::kInsert);
  const InsertStmt& ins = *stmt->insert;
  EXPECT_EQ(ins.table, "TVisited");
  ASSERT_EQ(ins.columns.size(), 4u);
  ASSERT_EQ(ins.rows.size(), 1u);
  ASSERT_EQ(ins.rows[0].size(), 4u);
  EXPECT_EQ(ins.rows[0][0]->kind, ExprKind::kParameter);
}

TEST(SqlParser, InsertMultipleRows) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("insert into t values (1, 2), (3, 4), (5, 6)", &stmt).ok());
  EXPECT_EQ(stmt->insert->rows.size(), 3u);
}

TEST(SqlParser, InsertFromSelect) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("insert into t select fid, tid from TEdges", &stmt).ok());
  ASSERT_NE(stmt->insert->select, nullptr);
  EXPECT_TRUE(stmt->insert->rows.empty());
}

TEST(SqlParser, UpdateWithWhere) {
  // Listing 3(2).
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("Update TVisited set f=1 where nid=:mid", &stmt).ok());
  ASSERT_EQ(stmt->kind, StmtKind::kUpdate);
  EXPECT_EQ(stmt->update->sets.size(), 1u);
  EXPECT_EQ(stmt->update->sets[0].column, "f");
  ASSERT_NE(stmt->update->where, nullptr);
}

TEST(SqlParser, UpdateFrontierSelection) {
  // Listing 4(1): the BSEG frontier-marking statement with nested subquery.
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne(
                  "Update TVisited set f=2 "
                  "where (d2s <= :bound or "
                  "d2s = (select min(d2s) from TVisited where f=0)) and f=0",
                  &stmt)
                  .ok());
  const Expr& w = *stmt->update->where;
  EXPECT_EQ(w.binary_op, BinaryOp::kAnd);
  EXPECT_EQ(w.left->binary_op, BinaryOp::kOr);
}

TEST(SqlParser, DeleteWithoutWhere) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("delete from t", &stmt).ok());
  EXPECT_EQ(stmt->del->where, nullptr);
}

TEST(SqlParser, MergeListing4Statement) {
  // Listing 4(2) — the paper's combined F/E/M statement, lightly normalized
  // (alias spelling, parameters for lb/minCost/Max).
  const char* sql =
      "Merge into TVisited as target "
      "using (select nid, p2s, cost from "
      "  (select out.tid, out.pid, out.cost + q.d2s, "
      "     row_number() over (partition by out.tid "
      "                        order by out.cost + q.d2s) as rownum "
      "   from TVisited q, TOutSegs out "
      "   where q.nid = out.fid and q.f = 2 "
      "     and out.cost + q.d2s + :lb < :minCost) "
      "  tmp (nid, p2s, cost, rownum) "
      " where rownum = 1) as source (nid, p2s, cost) "
      "on (source.nid = target.nid) "
      "when matched and target.d2s > source.cost then "
      "  update set d2s = source.cost, p2s = source.p2s, f = 0 "
      "when not matched then "
      "  insert (nid, d2s, d2t, p2s, f) "
      "  values (source.nid, source.cost, :infinity, source.p2s, 0)";
  std::unique_ptr<Statement> stmt;
  Status s = ParseOne(sql, &stmt);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(stmt->kind, StmtKind::kMerge);
  const MergeStmt& m = *stmt->merge;
  EXPECT_EQ(m.target_table, "TVisited");
  EXPECT_EQ(m.target_alias, "target");
  EXPECT_EQ(m.source.alias, "source");
  ASSERT_EQ(m.source.column_aliases.size(), 3u);
  EXPECT_TRUE(m.has_matched_clause);
  ASSERT_NE(m.matched_condition, nullptr);
  EXPECT_EQ(m.matched_sets.size(), 3u);
  EXPECT_TRUE(m.has_not_matched_clause);
  EXPECT_EQ(m.insert_columns.size(), 5u);
  EXPECT_EQ(m.insert_values.size(), 5u);
}

TEST(SqlParser, MergeNotMatchedByTarget) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("merge into t using s on (t.k = s.k) "
                       "when not matched by target then insert values (s.k)",
                       &stmt)
                  .ok());
  EXPECT_TRUE(stmt->merge->has_not_matched_clause);
  EXPECT_FALSE(stmt->merge->has_matched_clause);
}

TEST(SqlParser, MergeRequiresAWhenClause) {
  std::unique_ptr<Statement> stmt;
  EXPECT_FALSE(ParseOne("merge into t using s on (t.k = s.k)", &stmt).ok());
}

TEST(SqlParser, CreateTablePlain) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("create table TEdges (fid int, tid int, cost int)",
                       &stmt)
                  .ok());
  ASSERT_EQ(stmt->kind, StmtKind::kCreateTable);
  EXPECT_EQ(stmt->create_table->columns.size(), 3u);
  EXPECT_TRUE(stmt->create_table->cluster_by.empty());
}

TEST(SqlParser, CreateTableClustered) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("create table TVisited (nid int, d2s int) "
                       "cluster by (nid) unique",
                       &stmt)
                  .ok());
  EXPECT_EQ(stmt->create_table->cluster_by, "nid");
  EXPECT_TRUE(stmt->create_table->cluster_unique);
}

TEST(SqlParser, CreateTableVarcharAndDouble) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("create table t (name varchar(32), score double)", &stmt).ok());
  EXPECT_EQ(stmt->create_table->columns[0].type, TypeId::kVarchar);
  EXPECT_EQ(stmt->create_table->columns[1].type, TypeId::kDouble);
}

TEST(SqlParser, CreateIndex) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("create unique index ix on TVisited (nid)", &stmt).ok());
  ASSERT_EQ(stmt->kind, StmtKind::kCreateIndex);
  EXPECT_TRUE(stmt->create_index->unique);
  EXPECT_EQ(stmt->create_index->table, "TVisited");
  EXPECT_EQ(stmt->create_index->columns, std::vector<std::string>{"nid"});
}

// Two columns name an open tree; the parser keeps any column list and the
// planner rejects the forms it cannot build (UNIQUE, three columns, ...).
TEST(SqlParser, CreateIndexOnTwoColumns) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("create index ix_open on W (f, d)", &stmt).ok());
  ASSERT_EQ(stmt->kind, StmtKind::kCreateIndex);
  EXPECT_FALSE(stmt->create_index->unique);
  EXPECT_EQ(stmt->create_index->index_name, "ix_open");
  EXPECT_EQ(stmt->create_index->table, "W");
  EXPECT_EQ(stmt->create_index->columns,
            (std::vector<std::string>{"f", "d"}));
  ASSERT_TRUE(ParseOne("create unique index ix on W (f, d)", &stmt).ok());
  EXPECT_TRUE(stmt->create_index->unique);
  EXPECT_EQ(stmt->create_index->columns.size(), 2u);
  ASSERT_TRUE(ParseOne("create index ix3 on W (f, d, nid)", &stmt).ok());
  EXPECT_EQ(stmt->create_index->columns.size(), 3u);
  for (const char* bad : {"create index ix on W (f,)", "create index ix on W ()",
                          "create index ix on W (f d)"}) {
    EXPECT_FALSE(Parser::Parse(bad, &stmt).ok()) << bad;
  }
}

TEST(SqlParser, TruncateAndDrop) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("truncate table TVisited", &stmt).ok());
  EXPECT_EQ(stmt->kind, StmtKind::kTruncate);
  ASSERT_TRUE(ParseOne("drop table TVisited", &stmt).ok());
  EXPECT_EQ(stmt->kind, StmtKind::kDropTable);
}

TEST(SqlParser, OperatorPrecedence) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("select 1 + 2 * 3", &stmt).ok());
  const Expr& e = *stmt->select->items[0].expr;
  // + at the top, * underneath.
  EXPECT_EQ(e.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.right->binary_op, BinaryOp::kMul);
}

TEST(SqlParser, AndOrPrecedence) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("select 1 from t where a = 1 or b = 2 and c = 3", &stmt).ok());
  // OR at the top: a=1 OR (b=2 AND c=3).
  EXPECT_EQ(stmt->select->where->binary_op, BinaryOp::kOr);
  EXPECT_EQ(stmt->select->where->right->binary_op, BinaryOp::kAnd);
}

TEST(SqlParser, IsNullSugar) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(ParseOne("select 1 from t where x is not null", &stmt).ok());
  EXPECT_EQ(stmt->select->where->kind, ExprKind::kFuncCall);
  EXPECT_EQ(stmt->select->where->func_name, "IS_NOT_NULL");
}

TEST(SqlParser, OrderByAscDesc) {
  std::unique_ptr<Statement> stmt;
  ASSERT_TRUE(
      ParseOne("select a from t order by a desc, b asc, c", &stmt).ok());
  ASSERT_EQ(stmt->select->order_by.size(), 3u);
  EXPECT_FALSE(stmt->select->order_by[0]->ascending);
  EXPECT_TRUE(stmt->select->order_by[1]->ascending);
  EXPECT_TRUE(stmt->select->order_by[2]->ascending);
}

TEST(SqlParser, ScriptSplitsOnSemicolons) {
  std::vector<std::unique_ptr<Statement>> stmts;
  ASSERT_TRUE(Parser::ParseScript(
                  "create table t (a int); insert into t values (1);;"
                  "select a from t;",
                  &stmts)
                  .ok());
  EXPECT_EQ(stmts.size(), 3u);
}

TEST(SqlParser, ToStringRoundTripsThroughParser) {
  // Render -> reparse -> render must be a fixed point.
  const char* inputs[] = {
      "select nid, d2s from TVisited where f = 0",
      "select top 1 nid from TVisited where d2s = "
      "(select min(d2s) from TVisited where f = 0)",
      "select out.tid, row_number() over (partition by out.tid order by "
      "out.cost + q.d2s) as rn from TVisited q, TEdges out",
      "select min(d2s + d2t) from TVisited",
  };
  for (const char* in : inputs) {
    std::unique_ptr<Statement> stmt;
    ASSERT_TRUE(Parser::Parse(in, &stmt).ok()) << in;
    std::string first = stmt->select->ToString();
    std::unique_ptr<Statement> again;
    ASSERT_TRUE(Parser::Parse(first, &again).ok()) << first;
    EXPECT_EQ(first, again->select->ToString());
  }
}

// Malformed-input corpus: every entry must fail cleanly.
TEST(SqlParser, RejectsMalformedStatements) {
  const char* bad[] = {
      "",                                     // empty
      "selec nid from t",                     // typo keyword -> identifier
      "select from t",                        // missing select list
      "select a from",                        // missing table
      "select a from t where",                // missing predicate
      "select a, from t",                     // dangling comma
      "insert into t",                        // no VALUES / SELECT
      "insert into t values 1, 2",            // missing parens
      "insert into t values (1,)",            // trailing comma
      "update t f = 1",                       // missing SET
      "update t set f 1",                     // missing =
      "delete t where a = 1",                 // missing FROM
      "merge into t using s when matched then update set a=1",  // missing ON
      "create table t",                       // missing columns
      "create table t (a unknown_type)",      // bad type
      "create index on t",                    // missing column
      "select a from t group by",             // dangling GROUP BY
      "select a from t order by",             // dangling ORDER BY
      "select (select 1",                     // unbalanced paren
      "select count(* from t",                // unbalanced function
      "select a from t limit x",              // non-integer limit
      "select top x a from t",                // non-integer top
  };
  for (const char* in : bad) {
    std::unique_ptr<Statement> stmt;
    Status s = Parser::Parse(in, &stmt);
    EXPECT_FALSE(s.ok()) << "should have failed: " << in;
  }
}

}  // namespace
}  // namespace relgraph::sql
