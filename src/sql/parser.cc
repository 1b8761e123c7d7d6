#include "src/sql/parser.h"

#include <utility>

#include "src/sql/lexer.h"

namespace relgraph::sql {

namespace {

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

}  // namespace

// ----- plumbing --------------------------------------------------------------

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // the kEnd sentinel
  return tokens_[i];
}

Token Parser::Advance() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) pos_++;
  return t;
}

bool Parser::CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }

bool Parser::MatchKeyword(const char* kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!MatchKeyword(kw)) return ErrorHere(std::string("keyword ") + kw);
  return Status::OK();
}

bool Parser::Match(TokenKind k) {
  if (Peek().kind == k) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind k, Token* out) {
  if (Peek().kind != k) return ErrorHere(TokenKindName(k));
  Token t = Advance();
  if (out != nullptr) *out = std::move(t);
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& expected) const {
  const Token& t = Peek();
  std::string got = t.kind == TokenKind::kEnd
                        ? "end of input"
                        : std::string(TokenKindName(t.kind)) +
                              (t.text.empty() ? "" : " '" + t.text + "'");
  return Status::InvalidArgument("expected " + expected + ", got " + got +
                                 " at offset " + std::to_string(t.offset));
}

// ----- entry points ----------------------------------------------------------

Status Parser::Parse(const std::string& input,
                     std::unique_ptr<Statement>* out) {
  std::vector<Token> tokens;
  RELGRAPH_RETURN_IF_ERROR(Lexer::Tokenize(input, &tokens));
  Parser p(std::move(tokens));
  RELGRAPH_RETURN_IF_ERROR(p.ParseStatement(out));
  p.Match(TokenKind::kSemicolon);
  if (p.Peek().kind != TokenKind::kEnd) {
    return p.ErrorHere("end of statement");
  }
  return Status::OK();
}

Status Parser::ParseScript(const std::string& input,
                           std::vector<std::unique_ptr<Statement>>* out) {
  std::vector<Token> tokens;
  RELGRAPH_RETURN_IF_ERROR(Lexer::Tokenize(input, &tokens));
  Parser p(std::move(tokens));
  out->clear();
  while (p.Peek().kind != TokenKind::kEnd) {
    if (p.Match(TokenKind::kSemicolon)) continue;
    std::unique_ptr<Statement> stmt;
    RELGRAPH_RETURN_IF_ERROR(p.ParseStatement(&stmt));
    out->push_back(std::move(stmt));
    if (p.Peek().kind != TokenKind::kEnd) {
      RELGRAPH_RETURN_IF_ERROR(p.Expect(TokenKind::kSemicolon));
    }
  }
  return Status::OK();
}

// ----- statements ------------------------------------------------------------

Status Parser::ParseStatement(std::unique_ptr<Statement>* out) {
  auto stmt = std::make_unique<Statement>();
  if (CheckKeyword("SELECT")) {
    stmt->kind = StmtKind::kSelect;
    RELGRAPH_RETURN_IF_ERROR(ParseSelect(&stmt->select));
  } else if (CheckKeyword("INSERT")) {
    stmt->kind = StmtKind::kInsert;
    RELGRAPH_RETURN_IF_ERROR(ParseInsert(&stmt->insert));
  } else if (CheckKeyword("UPDATE")) {
    stmt->kind = StmtKind::kUpdate;
    RELGRAPH_RETURN_IF_ERROR(ParseUpdate(&stmt->update));
  } else if (CheckKeyword("DELETE")) {
    stmt->kind = StmtKind::kDelete;
    RELGRAPH_RETURN_IF_ERROR(ParseDelete(&stmt->del));
  } else if (CheckKeyword("MERGE")) {
    stmt->kind = StmtKind::kMerge;
    RELGRAPH_RETURN_IF_ERROR(ParseMerge(&stmt->merge));
  } else if (CheckKeyword("CREATE")) {
    RELGRAPH_RETURN_IF_ERROR(ParseCreate(&stmt));
  } else if (MatchKeyword("DROP")) {
    if (MatchKeyword("INDEX")) {
      // DROP INDEX <name> ON <table>
      Token name, table;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("ON"));
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &table));
      stmt->kind = StmtKind::kDropIndex;
      stmt->drop_index = std::make_unique<DropIndexStmt>();
      stmt->drop_index->index_name = name.text;
      stmt->drop_index->table = table.text;
    } else {
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
      Token name;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
      stmt->kind = StmtKind::kDropTable;
      stmt->drop_table = std::make_unique<DropTableStmt>();
      stmt->drop_table->table = name.text;
    }
  } else if (MatchKeyword("TRUNCATE")) {
    MatchKeyword("TABLE");  // optional noise word
    Token name;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
    stmt->kind = StmtKind::kTruncate;
    stmt->truncate = std::make_unique<TruncateStmt>();
    stmt->truncate->table = name.text;
  } else {
    return ErrorHere("a statement (SELECT/INSERT/UPDATE/DELETE/MERGE/CREATE/"
                     "DROP/TRUNCATE)");
  }
  *out = std::move(stmt);
  return Status::OK();
}

Status Parser::ParseSelect(std::unique_ptr<SelectStmt>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto sel = std::make_unique<SelectStmt>();
  if (MatchKeyword("DISTINCT")) sel->distinct = true;
  if (MatchKeyword("TOP")) {
    Token n;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kInteger, &n));
    sel->top = n.int_value;
  }

  // Select list.
  do {
    SelectItem item;
    if (Peek().kind == TokenKind::kStar) {
      Advance();  // bare `*`
    } else {
      RELGRAPH_RETURN_IF_ERROR(ParseExpr(&item.expr));
      if (MatchKeyword("AS")) {
        Token a;
        RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &a));
        item.alias = a.text;
      } else if (Peek().kind == TokenKind::kIdentifier) {
        item.alias = Advance().text;  // bare alias
      }
    }
    sel->items.push_back(std::move(item));
  } while (Match(TokenKind::kComma));

  if (MatchKeyword("FROM")) {
    do {
      FromItem fi;
      RELGRAPH_RETURN_IF_ERROR(ParseFromItem(&fi));
      sel->from.push_back(std::move(fi));
    } while (Match(TokenKind::kComma));
  }

  if (MatchKeyword("WHERE")) {
    RELGRAPH_RETURN_IF_ERROR(ParseExpr(&sel->where));
  }
  if (MatchKeyword("GROUP")) {
    RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      ExprPtr e;
      RELGRAPH_RETURN_IF_ERROR(ParseExpr(&e));
      sel->group_by.push_back(std::move(e));
    } while (Match(TokenKind::kComma));
  }
  if (MatchKeyword("ORDER")) {
    RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
    RELGRAPH_RETURN_IF_ERROR(ParseOrderItems(&sel->order_by));
  }
  if (MatchKeyword("LIMIT")) {
    Token n;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kInteger, &n));
    sel->limit = n.int_value;
  }
  *out = std::move(sel);
  return Status::OK();
}

Status Parser::ParseFromItem(FromItem* out) {
  if (Match(TokenKind::kLParen)) {
    out->kind = FromKind::kSubquery;
    RELGRAPH_RETURN_IF_ERROR(ParseSelect(&out->subquery));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  } else {
    Token name;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
    out->kind = FromKind::kTable;
    out->table_name = name.text;
  }
  // Optional alias (with optional AS), optional derived column list.
  if (MatchKeyword("AS")) {
    Token a;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &a));
    out->alias = a.text;
  } else if (Peek().kind == TokenKind::kIdentifier) {
    out->alias = Advance().text;
  }
  if (Peek().kind == TokenKind::kLParen &&
      Peek(1).kind == TokenKind::kIdentifier &&
      (Peek(2).kind == TokenKind::kComma || Peek(2).kind == TokenKind::kRParen)) {
    Advance();  // (
    RELGRAPH_RETURN_IF_ERROR(ParseIdentifierList(&out->column_aliases));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  }
  if (out->kind == FromKind::kSubquery && out->alias.empty()) {
    return Status::InvalidArgument("derived table requires an alias");
  }
  return Status::OK();
}

Status Parser::ParseOrderItems(std::vector<std::unique_ptr<OrderItem>>* out) {
  do {
    auto item = std::make_unique<OrderItem>();
    RELGRAPH_RETURN_IF_ERROR(ParseExpr(&item->expr));
    if (MatchKeyword("DESC")) {
      item->ascending = false;
    } else {
      MatchKeyword("ASC");
    }
    out->push_back(std::move(item));
  } while (Match(TokenKind::kComma));
  return Status::OK();
}

Status Parser::ParseIdentifierList(std::vector<std::string>* out) {
  do {
    Token t;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &t));
    out->push_back(t.text);
  } while (Match(TokenKind::kComma));
  return Status::OK();
}

Status Parser::ParseInsert(std::unique_ptr<InsertStmt>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto ins = std::make_unique<InsertStmt>();
  Token name;
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
  ins->table = name.text;
  if (Peek().kind == TokenKind::kLParen &&
      Peek(1).kind == TokenKind::kIdentifier) {
    Advance();
    RELGRAPH_RETURN_IF_ERROR(ParseIdentifierList(&ins->columns));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  }
  if (MatchKeyword("VALUES")) {
    do {
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      std::vector<ExprPtr> row;
      do {
        ExprPtr e;
        RELGRAPH_RETURN_IF_ERROR(ParseExpr(&e));
        row.push_back(std::move(e));
      } while (Match(TokenKind::kComma));
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      ins->rows.push_back(std::move(row));
    } while (Match(TokenKind::kComma));
  } else if (CheckKeyword("SELECT")) {
    RELGRAPH_RETURN_IF_ERROR(ParseSelect(&ins->select));
  } else {
    return ErrorHere("VALUES or SELECT");
  }
  *out = std::move(ins);
  return Status::OK();
}

Status Parser::ParseSetItems(std::vector<SetItem>* out) {
  do {
    Token col;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &col));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kEq));
    SetItem s;
    s.column = col.text;
    RELGRAPH_RETURN_IF_ERROR(ParseExpr(&s.expr));
    out->push_back(std::move(s));
  } while (Match(TokenKind::kComma));
  return Status::OK();
}

Status Parser::ParseUpdate(std::unique_ptr<UpdateStmt>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  auto upd = std::make_unique<UpdateStmt>();
  Token name;
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
  upd->table = name.text;
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("SET"));
  RELGRAPH_RETURN_IF_ERROR(ParseSetItems(&upd->sets));
  if (MatchKeyword("WHERE")) {
    RELGRAPH_RETURN_IF_ERROR(ParseExpr(&upd->where));
  }
  *out = std::move(upd);
  return Status::OK();
}

Status Parser::ParseDelete(std::unique_ptr<DeleteStmt>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto del = std::make_unique<DeleteStmt>();
  Token name;
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
  del->table = name.text;
  if (MatchKeyword("WHERE")) {
    RELGRAPH_RETURN_IF_ERROR(ParseExpr(&del->where));
  }
  *out = std::move(del);
  return Status::OK();
}

Status Parser::ParseMerge(std::unique_ptr<MergeStmt>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("MERGE"));
  MatchKeyword("INTO");  // MERGE [INTO] target — both spellings appear
  auto m = std::make_unique<MergeStmt>();
  Token name;
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
  m->target_table = name.text;
  if (MatchKeyword("AS")) {
    Token a;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &a));
    m->target_alias = a.text;
  } else if (Peek().kind == TokenKind::kIdentifier) {
    m->target_alias = Advance().text;
  }
  if (m->target_alias.empty()) m->target_alias = m->target_table;

  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("USING"));
  RELGRAPH_RETURN_IF_ERROR(ParseFromItem(&m->source));
  if (m->source.alias.empty()) m->source.alias = m->source.table_name;

  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("ON"));
  bool paren = Match(TokenKind::kLParen);
  RELGRAPH_RETURN_IF_ERROR(ParseExpr(&m->on));
  if (paren) RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

  while (CheckKeyword("WHEN")) {
    Advance();
    if (MatchKeyword("MATCHED")) {
      m->has_matched_clause = true;
      if (MatchKeyword("AND")) {
        RELGRAPH_RETURN_IF_ERROR(ParseExpr(&m->matched_condition));
      }
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("SET"));
      RELGRAPH_RETURN_IF_ERROR(ParseSetItems(&m->matched_sets));
    } else if (MatchKeyword("NOT")) {
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("MATCHED"));
      if (MatchKeyword("BY")) {
        // "BY TARGET" — the paper's Listing 2(4) spelling. TARGET is not a
        // reserved word (it doubles as the customary merge alias), so it
        // arrives as an identifier.
        Token t;
        RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &t));
        std::string upper = t.text;
        for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
        if (upper != "TARGET") return ErrorHere("TARGET after BY");
      }
      m->has_not_matched_clause = true;
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
      if (Peek().kind == TokenKind::kLParen &&
          Peek(1).kind == TokenKind::kIdentifier &&
          Peek(2).kind != TokenKind::kLParen) {
        Advance();
        RELGRAPH_RETURN_IF_ERROR(ParseIdentifierList(&m->insert_columns));
        RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      }
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      do {
        ExprPtr e;
        RELGRAPH_RETURN_IF_ERROR(ParseExpr(&e));
        m->insert_values.push_back(std::move(e));
      } while (Match(TokenKind::kComma));
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    } else {
      return ErrorHere("MATCHED or NOT MATCHED");
    }
  }
  if (!m->has_matched_clause && !m->has_not_matched_clause) {
    return Status::InvalidArgument("MERGE requires at least one WHEN clause");
  }
  *out = std::move(m);
  return Status::OK();
}

Status Parser::ParseCreate(std::unique_ptr<Statement>* out) {
  RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  bool unique = MatchKeyword("UNIQUE");
  if (MatchKeyword("TABLE")) {
    if (unique) return Status::InvalidArgument("CREATE UNIQUE TABLE");
    auto ct = std::make_unique<CreateTableStmt>();
    Token name;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &name));
    ct->table = name.text;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    do {
      Token col;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &col));
      ColumnDef def;
      def.name = col.text;
      if (MatchKeyword("INT") || MatchKeyword("BIGINT") ||
          MatchKeyword("INTEGER")) {
        def.type = TypeId::kInt;
      } else if (MatchKeyword("DOUBLE")) {
        def.type = TypeId::kDouble;
      } else if (MatchKeyword("VARCHAR")) {
        if (Match(TokenKind::kLParen)) {  // VARCHAR(n): length is advisory
          RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kInteger));
          RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        }
        def.type = TypeId::kVarchar;
      } else {
        return ErrorHere("a column type (INT/BIGINT/DOUBLE/VARCHAR)");
      }
      ct->columns.push_back(std::move(def));
    } while (Match(TokenKind::kComma));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    if (MatchKeyword("CLUSTER")) {
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      Token col;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &col));
      ct->cluster_by = col.text;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      ct->cluster_unique = MatchKeyword("UNIQUE");
    }
    (*out)->kind = StmtKind::kCreateTable;
    (*out)->create_table = std::move(ct);
    return Status::OK();
  }
  if (MatchKeyword("INDEX")) {
    auto ci = std::make_unique<CreateIndexStmt>();
    ci->unique = unique;
    if (Peek().kind == TokenKind::kIdentifier) {
      ci->index_name = Advance().text;
    }
    RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("ON"));
    Token table;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &table));
    ci->table = table.text;
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    do {
      Token col;
      RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &col));
      ci->columns.push_back(col.text);
    } while (Match(TokenKind::kComma));
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    (*out)->kind = StmtKind::kCreateIndex;
    (*out)->create_index = std::move(ci);
    return Status::OK();
  }
  return ErrorHere("TABLE or INDEX after CREATE");
}

// ----- expressions -----------------------------------------------------------

Status Parser::ParseExpr(ExprPtr* out) { return ParseOr(out); }

Status Parser::ParseOr(ExprPtr* out) {
  RELGRAPH_RETURN_IF_ERROR(ParseAnd(out));
  while (MatchKeyword("OR")) {
    ExprPtr rhs;
    RELGRAPH_RETURN_IF_ERROR(ParseAnd(&rhs));
    *out = MakeBinary(BinaryOp::kOr, std::move(*out), std::move(rhs));
  }
  return Status::OK();
}

Status Parser::ParseAnd(ExprPtr* out) {
  RELGRAPH_RETURN_IF_ERROR(ParseNot(out));
  while (MatchKeyword("AND")) {
    ExprPtr rhs;
    RELGRAPH_RETURN_IF_ERROR(ParseNot(&rhs));
    *out = MakeBinary(BinaryOp::kAnd, std::move(*out), std::move(rhs));
  }
  return Status::OK();
}

Status Parser::ParseNot(ExprPtr* out) {
  if (MatchKeyword("NOT")) {
    ExprPtr inner;
    RELGRAPH_RETURN_IF_ERROR(ParseNot(&inner));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnary;
    e->unary_op = UnaryOp::kNot;
    e->left = std::move(inner);
    *out = std::move(e);
    return Status::OK();
  }
  return ParseComparison(out);
}

Status Parser::ParseComparison(ExprPtr* out) {
  RELGRAPH_RETURN_IF_ERROR(ParseAdditive(out));
  BinaryOp op;
  switch (Peek().kind) {
    case TokenKind::kEq: op = BinaryOp::kEq; break;
    case TokenKind::kNe: op = BinaryOp::kNe; break;
    case TokenKind::kLt: op = BinaryOp::kLt; break;
    case TokenKind::kLe: op = BinaryOp::kLe; break;
    case TokenKind::kGt: op = BinaryOp::kGt; break;
    case TokenKind::kGe: op = BinaryOp::kGe; break;
    default:
      // IS [NOT] NULL sugar: rewritten to = / <> against a NULL literal is
      // wrong under three-valued logic, so it gets a dedicated function.
      if (CheckKeyword("IS")) {
        Advance();
        bool negated = MatchKeyword("NOT");
        RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFuncCall;
        e->func_name = negated ? "IS_NOT_NULL" : "IS_NULL";
        e->args.push_back(std::move(*out));
        *out = std::move(e);
      }
      return Status::OK();
  }
  Advance();
  ExprPtr rhs;
  RELGRAPH_RETURN_IF_ERROR(ParseAdditive(&rhs));
  *out = MakeBinary(op, std::move(*out), std::move(rhs));
  return Status::OK();
}

Status Parser::ParseAdditive(ExprPtr* out) {
  RELGRAPH_RETURN_IF_ERROR(ParseMultiplicative(out));
  while (true) {
    BinaryOp op;
    if (Peek().kind == TokenKind::kPlus) {
      op = BinaryOp::kAdd;
    } else if (Peek().kind == TokenKind::kMinus) {
      op = BinaryOp::kSub;
    } else {
      return Status::OK();
    }
    Advance();
    ExprPtr rhs;
    RELGRAPH_RETURN_IF_ERROR(ParseMultiplicative(&rhs));
    *out = MakeBinary(op, std::move(*out), std::move(rhs));
  }
}

Status Parser::ParseMultiplicative(ExprPtr* out) {
  RELGRAPH_RETURN_IF_ERROR(ParseUnary(out));
  while (true) {
    BinaryOp op;
    if (Peek().kind == TokenKind::kStar) {
      op = BinaryOp::kMul;
    } else if (Peek().kind == TokenKind::kSlash) {
      op = BinaryOp::kDiv;
    } else {
      return Status::OK();
    }
    Advance();
    ExprPtr rhs;
    RELGRAPH_RETURN_IF_ERROR(ParseUnary(&rhs));
    *out = MakeBinary(op, std::move(*out), std::move(rhs));
  }
}

Status Parser::ParseUnary(ExprPtr* out) {
  if (Match(TokenKind::kMinus)) {
    ExprPtr inner;
    RELGRAPH_RETURN_IF_ERROR(ParseUnary(&inner));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kUnary;
    e->unary_op = UnaryOp::kNeg;
    e->left = std::move(inner);
    *out = std::move(e);
    return Status::OK();
  }
  Match(TokenKind::kPlus);  // unary plus is a no-op
  return ParsePrimary(out);
}

Status Parser::ParsePrimary(ExprPtr* out) {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInteger: {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLiteral;
      e->literal = Value(Advance().int_value);
      *out = std::move(e);
      return Status::OK();
    }
    case TokenKind::kFloat: {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLiteral;
      e->literal = Value(Advance().float_value);
      *out = std::move(e);
      return Status::OK();
    }
    case TokenKind::kString: {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLiteral;
      e->literal = Value(Advance().text);
      *out = std::move(e);
      return Status::OK();
    }
    case TokenKind::kParameter: {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kParameter;
      e->param_name = Advance().text;
      *out = std::move(e);
      return Status::OK();
    }
    case TokenKind::kLParen: {
      Advance();
      if (CheckKeyword("SELECT")) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kSubquery;
        RELGRAPH_RETURN_IF_ERROR(ParseSelect(&e->subquery));
        RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        *out = std::move(e);
        return Status::OK();
      }
      RELGRAPH_RETURN_IF_ERROR(ParseExpr(out));
      return Expect(TokenKind::kRParen);
    }
    case TokenKind::kKeyword: {
      if (t.text == "NULL") {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLiteral;
        e->literal = Value::Null();
        *out = std::move(e);
        return Status::OK();
      }
      if (t.text == "MIN" || t.text == "MAX" || t.text == "SUM" ||
          t.text == "COUNT" || t.text == "ROW_NUMBER") {
        std::string name = Advance().text;
        return ParseFunctionCall(name, out);
      }
      return ErrorHere("an expression");
    }
    case TokenKind::kIdentifier: {
      std::string first = Advance().text;
      if (Peek().kind == TokenKind::kLParen) {
        // Unreserved function name (none today) — report clearly.
        return Status::InvalidArgument("unknown function '" + first +
                                       "' at offset " + std::to_string(t.offset));
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kColumnRef;
      if (Match(TokenKind::kDot)) {
        Token col;
        RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kIdentifier, &col));
        e->qualifier = std::move(first);
        e->column = col.text;
      } else {
        e->column = std::move(first);
      }
      *out = std::move(e);
      return Status::OK();
    }
    default:
      return ErrorHere("an expression");
  }
}

Status Parser::ParseFunctionCall(const std::string& upper_name, ExprPtr* out) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  e->func_name = upper_name;
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  if (Peek().kind == TokenKind::kStar) {
    Advance();
    e->star_arg = true;
  } else if (Peek().kind != TokenKind::kRParen) {
    do {
      ExprPtr arg;
      RELGRAPH_RETURN_IF_ERROR(ParseExpr(&arg));
      e->args.push_back(std::move(arg));
    } while (Match(TokenKind::kComma));
  }
  RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

  if (MatchKeyword("OVER")) {
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    auto win = std::make_unique<WindowSpec>();
    if (MatchKeyword("PARTITION")) {
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        ExprPtr p;
        RELGRAPH_RETURN_IF_ERROR(ParseExpr(&p));
        win->partition_by.push_back(std::move(p));
      } while (Match(TokenKind::kComma));
    }
    if (MatchKeyword("ORDER")) {
      RELGRAPH_RETURN_IF_ERROR(ExpectKeyword("BY"));
      RELGRAPH_RETURN_IF_ERROR(ParseOrderItems(&win->order_by));
    }
    RELGRAPH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    e->window = std::move(win);
  } else if (upper_name == "ROW_NUMBER") {
    return Status::InvalidArgument("ROW_NUMBER() requires an OVER clause");
  }
  *out = std::move(e);
  return Status::OK();
}

}  // namespace relgraph::sql
