//===- frontend/Parser.h - Mini-ZPL parser ---------------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the mini-ZPL input language, lowering
/// directly to `ir::Program`. The grammar (comments run from `--` to end
/// of line):
///
///   program    ::= item*
///   item       ::= regionDecl | arrayDecl | scalarDecl | stmt
///   regionDecl ::= 'region' IDENT ':' '[' range (',' range)* ']' ';'
///   range      ::= INT '..' INT
///   arrayDecl  ::= 'array' IDENT (',' IDENT)* ':' IDENT trait* ';'
///   trait      ::= 'temp' | 'persistent' | 'in'
///   scalarDecl ::= 'scalar' IDENT (',' IDENT)* ';'
///   dirDecl    ::= 'direction' IDENT ':' '(' INT (',' INT)* ')' ';'
///   stmt       ::= '[' IDENT ']' IDENT offset? ':=' rhs ';'
///   rhs        ::= redop '<<' expr      -- scalar LHS only
///                | expr                 -- array LHS only
///   redop      ::= '+' | 'min' | 'max'
///   expr       ::= term (('+'|'-') term)*
///   term       ::= factor (('*'|'/') factor)*
///   factor     ::= NUMBER | '-' factor | '(' expr ')'
///                | IDENT offset?                  -- array/scalar ref
///                | BUILTIN '(' expr (',' expr)? ')'
///   offset     ::= '@' '(' INT (',' INT)* ')' | '@' IDENT
///
/// Builtins: sqrt exp log sin cos abs recip (one argument), min max
/// (two arguments). Array traits: `temp` marks a user temporary (dead
/// outside the fragment), `in` live-in only; the default is persistent
/// (live-in and live-out).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_FRONTEND_PARSER_H
#define ALF_FRONTEND_PARSER_H

#include "ir/Program.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace alf {
namespace frontend {

/// Outcome of a parse: a program (null when any error occurred) plus the
/// collected diagnostics ("line:col: message").
struct ParseResult {
  std::unique_ptr<ir::Program> Prog;
  std::vector<std::string> Errors;

  /// (line, col) of each statement's opening '[', indexed by statement id
  /// (aligned with Prog->getStmt). Lint diagnostics use these to point at
  /// source positions.
  std::vector<std::pair<unsigned, unsigned>> StmtPositions;

  bool succeeded() const { return Prog != nullptr; }
};

/// Deepest expression nesting (parentheses, unary minus, builtin calls)
/// parseProgram() accepts. Deeper source is a "line:col:" diagnostic
/// rather than a stack overflow.
inline constexpr unsigned MaxExprNesting = 256;

/// Most terms (operands, parenthesized groups, negations and builtin
/// calls: every factor) one statement's expression may have. A flat
/// `A + A + ... + A` chain builds an expression tree as deep as it is
/// long, and every later pass walks that tree recursively, so a longer
/// chain is a "line:col:" diagnostic rather than a stack overflow.
inline constexpr unsigned MaxExprTerms = 4096;

/// Parses \p Source into a Program named \p Name.
ParseResult parseProgram(const std::string &Source,
                         const std::string &Name = "main");

} // namespace frontend
} // namespace alf

#endif // ALF_FRONTEND_PARSER_H
