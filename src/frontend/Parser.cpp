//===- frontend/Parser.cpp - Mini-ZPL parser ---------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/StringUtil.h"

#include <map>

using namespace alf;
using namespace alf::frontend;
using namespace alf::ir;

namespace {

class Parser {
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::unique_ptr<Program> Prog;
  std::vector<std::string> &Errors;
  std::vector<std::pair<unsigned, unsigned>> &StmtPositions;
  std::map<std::string, const Region *> Regions;
  std::map<std::string, unsigned> RegionRanks;
  std::map<std::string, Offset> Directions;
  unsigned Nesting = 0; ///< parseFactor calls on the stack
  unsigned Terms = 0;   ///< parseFactor calls in this statement's expression

public:
  Parser(const std::string &Source, const std::string &Name,
         std::vector<std::string> &Errors,
         std::vector<std::pair<unsigned, unsigned>> &StmtPositions)
      : Tokens(tokenize(Source)), Prog(std::make_unique<Program>(Name)),
        Errors(Errors), StmtPositions(StmtPositions) {}

  std::unique_ptr<Program> run() {
    while (!at(TokenKind::Eof)) {
      size_t Before = Pos;
      parseItem();
      if (Pos == Before)
        ++Pos; // always make progress, even on malformed input
    }
    if (!Errors.empty())
      return nullptr;
    return std::move(Prog);
  }

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(TokenKind K) const { return peek().Kind == K; }

  const Token &advance() {
    const Token &T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }

  void error(const std::string &Msg) { errorAt(peek(), Msg); }

  void errorAt(const Token &T, const std::string &Msg) {
    Errors.push_back(formatString("%u:%u: %s", T.Line, T.Col, Msg.c_str()));
  }

  /// Skips to just past the next ';' (error recovery).
  void syncToSemi() {
    while (!at(TokenKind::Eof) && !at(TokenKind::Semi))
      ++Pos;
    if (at(TokenKind::Semi))
      advance();
  }

  bool expect(TokenKind K, const char *What) {
    if (at(K)) {
      advance();
      return true;
    }
    error(formatString("expected %s, found %s \"%s\"", What,
                       getTokenKindName(peek().Kind), peek().Text.c_str()));
    return false;
  }

  void parseItem() {
    switch (peek().Kind) {
    case TokenKind::KwRegion:
      parseRegionDecl();
      return;
    case TokenKind::KwArray:
      parseArrayDecl();
      return;
    case TokenKind::KwScalar:
      parseScalarDecl();
      return;
    case TokenKind::KwDirection:
      parseDirectionDecl();
      return;
    case TokenKind::LBracket:
      parseStmt();
      return;
    default:
      error(formatString("expected a declaration or statement, found %s",
                         getTokenKindName(peek().Kind)));
      syncToSemi();
    }
  }

  void parseRegionDecl() {
    advance(); // 'region'
    const Token NameTok = peek();
    std::string Name = NameTok.Text;
    if (!expect(TokenKind::Ident, "region name"))
      return syncToSemi();
    if (!expect(TokenKind::Colon, "':'") ||
        !expect(TokenKind::LBracket, "'['"))
      return syncToSemi();
    std::vector<int64_t> Lo, Hi;
    while (true) {
      int64_t L = 0, H = 0;
      if (!parseInt(L, "range lower bound"))
        return syncToSemi();
      if (!expect(TokenKind::DotDot, "'..'"))
        return syncToSemi();
      if (!parseInt(H, "range upper bound"))
        return syncToSemi();
      if (L > H) {
        error(formatString("empty range %lld..%lld",
                           static_cast<long long>(L),
                           static_cast<long long>(H)));
        return syncToSemi();
      }
      Lo.push_back(L);
      Hi.push_back(H);
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::RBracket, "']'") ||
        !expect(TokenKind::Semi, "';'"))
      return syncToSemi();
    // Every later size computation (storage, footprints, byte counts)
    // is int64_t arithmetic over element counts of 8-byte doubles.
    int64_t Bytes = 8;
    for (size_t D = 0; D < Lo.size(); ++D) {
      int64_t Extent;
      if (__builtin_sub_overflow(Hi[D], Lo[D], &Extent) ||
          __builtin_add_overflow(Extent, 1, &Extent) ||
          __builtin_mul_overflow(Bytes, Extent, &Bytes)) {
        // Still declared below, so its uses report nothing further.
        errorAt(NameTok, "region " + Name +
                             " is too large: its size in bytes overflows a "
                             "64-bit integer");
        break;
      }
    }
    if (Regions.count(Name)) {
      error("region " + Name + " already declared");
      return;
    }
    Regions[Name] = Prog->internRegion(Region(Lo, Hi));
    RegionRanks[Name] = static_cast<unsigned>(Lo.size());
  }

  void parseArrayDecl() {
    advance(); // 'array'
    std::vector<std::string> Names;
    while (true) {
      if (!at(TokenKind::Ident)) {
        error("expected array name");
        return syncToSemi();
      }
      Names.push_back(advance().Text);
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::Colon, "':'"))
      return syncToSemi();
    std::string RegionName = peek().Text;
    if (!expect(TokenKind::Ident, "region name"))
      return syncToSemi();
    auto It = Regions.find(RegionName);
    if (It == Regions.end()) {
      error("unknown region " + RegionName);
      return syncToSemi();
    }
    ArrayOpts Opts; // persistent by default
    while (at(TokenKind::KwTemp) || at(TokenKind::KwPersistent) ||
           at(TokenKind::KwIn)) {
      TokenKind K = advance().Kind;
      if (K == TokenKind::KwTemp) {
        Opts.LiveIn = false;
        Opts.LiveOut = false;
      } else if (K == TokenKind::KwIn) {
        Opts.LiveIn = true;
        Opts.LiveOut = false;
      } else {
        Opts.LiveIn = true;
        Opts.LiveOut = true;
      }
    }
    if (!expect(TokenKind::Semi, "';'"))
      return syncToSemi();
    for (const std::string &Name : Names) {
      if (Prog->findSymbol(Name)) {
        error("symbol " + Name + " already declared");
        continue;
      }
      Prog->makeArray(Name, RegionRanks[RegionName], Opts);
    }
  }

  void parseDirectionDecl() {
    advance(); // 'direction'
    std::string Name = peek().Text;
    if (!expect(TokenKind::Ident, "direction name"))
      return syncToSemi();
    if (!expect(TokenKind::Colon, "':'") || !expect(TokenKind::LParen, "'('"))
      return syncToSemi();
    std::vector<int32_t> Elems;
    while (true) {
      int64_t V = 0;
      if (!parseInt(V, "direction element"))
        return syncToSemi();
      Elems.push_back(static_cast<int32_t>(V));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::RParen, "')'") || !expect(TokenKind::Semi, "';'"))
      return syncToSemi();
    if (Directions.count(Name)) {
      error("direction " + Name + " already declared");
      return;
    }
    Directions.emplace(Name, Offset(std::move(Elems)));
  }

  void parseScalarDecl() {
    advance(); // 'scalar'
    while (true) {
      if (!at(TokenKind::Ident)) {
        error("expected scalar name");
        return syncToSemi();
      }
      std::string Name = advance().Text;
      if (Prog->findSymbol(Name))
        error("symbol " + Name + " already declared");
      else
        Prog->makeScalar(Name);
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::Semi, "';'");
  }

  bool parseInt(int64_t &Out, const char *What) {
    bool Negative = false;
    if (at(TokenKind::Minus)) {
      advance();
      Negative = true;
    }
    if (!at(TokenKind::Number)) {
      error(formatString("expected %s", What));
      return false;
    }
    Out = static_cast<int64_t>(advance().NumValue);
    if (Negative)
      Out = -Out;
    return true;
  }

  bool parseOffset(Offset &Out, unsigned Rank) {
    advance(); // '@'
    // Named direction (ZPL's `direction` declarations): @north.
    if (at(TokenKind::Ident)) {
      std::string Name = advance().Text;
      auto It = Directions.find(Name);
      if (It == Directions.end()) {
        error("unknown direction " + Name);
        return false;
      }
      if (It->second.rank() != Rank) {
        error(formatString(
            "direction %s has %u elements but the array has rank %u",
            Name.c_str(), It->second.rank(), Rank));
        return false;
      }
      Out = It->second;
      return true;
    }
    if (!expect(TokenKind::LParen, "'('"))
      return false;
    std::vector<int32_t> Elems;
    while (true) {
      int64_t V = 0;
      if (!parseInt(V, "offset element"))
        return false;
      Elems.push_back(static_cast<int32_t>(V));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::RParen, "')'"))
      return false;
    if (Elems.size() != Rank) {
      error(formatString("offset has %zu elements but the array has rank %u",
                         Elems.size(), Rank));
      return false;
    }
    Out = Offset(std::move(Elems));
    return true;
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  /// A statement's whole right-hand side (or reduction body).
  ExprPtr parseStmtExpr() {
    Terms = 0;
    return parseExpr();
  }

  ExprPtr parseExpr() {
    ExprPtr L = parseTerm();
    while (L && (at(TokenKind::Plus) || at(TokenKind::Minus))) {
      TokenKind Op = advance().Kind;
      ExprPtr R = parseTerm();
      if (!R)
        return nullptr;
      L = Op == TokenKind::Plus ? add(std::move(L), std::move(R))
                                : sub(std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseTerm() {
    ExprPtr L = parseFactor();
    while (L && (at(TokenKind::Star) || at(TokenKind::Slash))) {
      TokenKind Op = advance().Kind;
      ExprPtr R = parseFactor();
      if (!R)
        return nullptr;
      L = Op == TokenKind::Star ? mul(std::move(L), std::move(R))
                                : div(std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseFactor() {
    if (Nesting == MaxExprNesting) {
      error(formatString("expression nested deeper than %u levels",
                         MaxExprNesting));
      return nullptr;
    }
    if (Terms == MaxExprTerms) {
      error(formatString("expression has more than %u terms", MaxExprTerms));
      return nullptr;
    }
    ++Terms;
    ++Nesting;
    ExprPtr E = parseFactorAtDepth();
    --Nesting;
    return E;
  }

  ExprPtr parseFactorAtDepth() {
    if (at(TokenKind::Number))
      return cst(advance().NumValue);
    if (at(TokenKind::Minus)) {
      advance();
      ExprPtr E = parseFactor();
      return E ? neg(std::move(E)) : nullptr;
    }
    if (at(TokenKind::LParen)) {
      advance();
      ExprPtr E = parseExpr();
      if (!E)
        return nullptr;
      if (!expect(TokenKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    if (at(TokenKind::Ident))
      return parseRefOrCall();
    error(formatString("expected an expression, found %s",
                       getTokenKindName(peek().Kind)));
    return nullptr;
  }

  ExprPtr parseRefOrCall() {
    std::string Name = advance().Text;

    // Builtin calls.
    using UOp = UnaryExpr::Opcode;
    static const std::map<std::string, UOp> Unaries = {
        {"sqrt", UOp::Sqrt}, {"exp", UOp::Exp},   {"log", UOp::Log},
        {"sin", UOp::Sin},   {"cos", UOp::Cos},   {"abs", UOp::Abs},
        {"recip", UOp::Recip}};
    if (at(TokenKind::LParen)) {
      advance();
      auto UIt = Unaries.find(Name);
      if (UIt != Unaries.end()) {
        ExprPtr E = parseExpr();
        if (!E || !expect(TokenKind::RParen, "')'"))
          return nullptr;
        return std::make_unique<UnaryExpr>(UIt->second, std::move(E));
      }
      if (Name == "min" || Name == "max") {
        ExprPtr L = parseExpr();
        if (!L || !expect(TokenKind::Comma, "','"))
          return nullptr;
        ExprPtr R = parseExpr();
        if (!R || !expect(TokenKind::RParen, "')'"))
          return nullptr;
        return Name == "min" ? emin(std::move(L), std::move(R))
                             : emax(std::move(L), std::move(R));
      }
      error("unknown builtin function " + Name);
      return nullptr;
    }

    const Symbol *Sym = Prog->findSymbol(Name);
    if (!Sym) {
      error("unknown symbol " + Name);
      return nullptr;
    }
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym)) {
      if (at(TokenKind::At)) {
        error("scalar " + Name + " cannot take an offset");
        return nullptr;
      }
      return sref(Sc);
    }
    const auto *Arr = cast<ArraySymbol>(Sym);
    Offset Off = Offset::zero(Arr->getRank());
    if (at(TokenKind::At) && !parseOffset(Off, Arr->getRank()))
      return nullptr;
    return aref(Arr, std::move(Off));
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void parseStmt() {
    unsigned StmtLine = peek().Line, StmtCol = peek().Col;
    advance(); // '['
    std::string RegionName = peek().Text;
    if (!expect(TokenKind::Ident, "region name"))
      return syncToSemi();
    auto RIt = Regions.find(RegionName);
    if (RIt == Regions.end()) {
      error("unknown region " + RegionName);
      return syncToSemi();
    }
    if (!expect(TokenKind::RBracket, "']'"))
      return syncToSemi();

    std::string LHSName = peek().Text;
    if (!expect(TokenKind::Ident, "assignment target"))
      return syncToSemi();
    const Symbol *LHS = Prog->findSymbol(LHSName);
    if (!LHS) {
      error("unknown symbol " + LHSName);
      return syncToSemi();
    }

    Offset LHSOff;
    bool HasLHSOffset = false;
    if (at(TokenKind::At)) {
      const auto *Arr = dyn_cast<ArraySymbol>(LHS);
      if (!Arr) {
        error("scalar " + LHSName + " cannot take an offset");
        return syncToSemi();
      }
      if (!parseOffset(LHSOff, Arr->getRank()))
        return syncToSemi();
      HasLHSOffset = true;
    }
    if (!expect(TokenKind::Assign, "':='"))
      return syncToSemi();

    // Reduction: '+' '<<' | 'min' '<<' | 'max' '<<' | 'or' '<<'.
    std::optional<ReduceStmt::ReduceOpKind> RedOp;
    if (at(TokenKind::Plus) && peek(1).Kind == TokenKind::Reduce)
      RedOp = ReduceStmt::ReduceOpKind::Sum;
    else if (at(TokenKind::Ident) && peek(1).Kind == TokenKind::Reduce) {
      if (peek().Text == "min")
        RedOp = ReduceStmt::ReduceOpKind::Min;
      else if (peek().Text == "max")
        RedOp = ReduceStmt::ReduceOpKind::Max;
      else if (peek().Text == "or")
        RedOp = ReduceStmt::ReduceOpKind::Or;
    }
    if (RedOp) {
      advance(); // the operator
      advance(); // '<<'
      const auto *Acc = dyn_cast<ScalarSymbol>(LHS);
      if (!Acc) {
        error("reduction target " + LHSName + " must be a scalar");
        return syncToSemi();
      }
      ExprPtr Body = parseStmtExpr();
      if (!Body)
        return syncToSemi();
      if (!expect(TokenKind::Semi, "';'"))
        return syncToSemi();
      Prog->reduce(RIt->second, Acc, *RedOp, std::move(Body));
      StmtPositions.push_back({StmtLine, StmtCol});
      return;
    }

    const auto *Arr = dyn_cast<ArraySymbol>(LHS);
    if (!Arr) {
      error("assignment target " + LHSName +
            " is a scalar; use a reduction (op<<) instead");
      return syncToSemi();
    }
    if (Arr->getRank() != RIt->second->rank()) {
      error(formatString("array %s has rank %u but region %s has rank %u",
                         LHSName.c_str(), Arr->getRank(), RegionName.c_str(),
                         RIt->second->rank()));
      return syncToSemi();
    }
    ExprPtr RHS = parseStmtExpr();
    if (!RHS)
      return syncToSemi();
    if (!expect(TokenKind::Semi, "';'"))
      return syncToSemi();
    if (!HasLHSOffset)
      LHSOff = Offset::zero(Arr->getRank());
    Prog->assign(RIt->second, Arr, std::move(LHSOff), std::move(RHS));
    StmtPositions.push_back({StmtLine, StmtCol});
  }
};

} // namespace

ParseResult frontend::parseProgram(const std::string &Source,
                                   const std::string &Name) {
  ParseResult Result;
  Parser P(Source, Name, Result.Errors, Result.StmtPositions);
  Result.Prog = P.run();
  return Result;
}
