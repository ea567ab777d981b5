//===- qasm/Grammar.h - Shared OpenQASM 2.0 grammar --------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one recursive-descent grammar behind parseQasm() and importQasm().
/// It pulls tokens from the lazy Lexer and hands each finished statement
/// to a sink: parseQasm's sink builds the Program AST, importQasm's lowers
/// straight into the circuit. Top-level gate parameters are built by the
/// sink's expression builder (AST nodes, or values evaluated as they
/// parse); gate bodies are always kept as AST, because they are inlined
/// later with their formals bound.
///
/// The grammar also bounds what a text can ask for: register sizes,
/// indices and the running qubit total stay within MaxImportQubits
/// (the int32_t maximum), and one
/// expression holds at most MaxExprTerms terms, so recursion depth is
/// bounded by the text's structure rather than its length.
///
/// Private to src/qasm.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_GRAMMAR_H
#define QLOSURE_QASM_GRAMMAR_H

#include "qasm/Ast.h"
#include "qasm/Importer.h"
#include "qasm/Lexer.h"
#include "support/StringUtils.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace qlosure {
namespace qasm {
namespace detail {

constexpr unsigned MaxExprTerms = 1024;

/// A register reference, viewing the source.
struct ArgRef {
  std::string_view Reg;
  bool HasIndex = false;
  uint32_t Index = 0;
};

inline Argument toArgument(const ArgRef &A) {
  Argument Arg;
  Arg.Reg = std::string(A.Reg);
  if (A.HasIndex)
    Arg.Index = A.Index;
  return Arg;
}

inline GateCall makeGateCall(std::string_view Name, unsigned Line,
                             std::vector<std::unique_ptr<Expr>> &Params,
                             const std::vector<ArgRef> &Args) {
  GateCall Call;
  Call.Name = std::string(Name);
  Call.Line = Line;
  Call.Params = std::move(Params);
  Params.clear();
  for (const ArgRef &A : Args)
    Call.Args.push_back(toArgument(A));
  return Call;
}

/// Builds parameter expressions as AST nodes.
struct TreeBuilder {
  using Value = std::unique_ptr<Expr>;

  static Value node(Expr::Kind Kind) {
    auto Node = std::make_unique<Expr>();
    Node->NodeKind = Kind;
    return Node;
  }
  static Value number(double V) {
    Value Node = node(Expr::Kind::Number);
    Node->Number = V;
    return Node;
  }
  static Value pi() { return node(Expr::Kind::Pi); }
  static Value param(std::string_view Name) {
    Value Node = node(Expr::Kind::Param);
    Node->Name = std::string(Name);
    return Node;
  }
  static Value unary(std::string_view Op, Value Operand) {
    Value Node = node(Expr::Kind::Unary);
    Node->Name = std::string(Op);
    Node->Lhs = std::move(Operand);
    return Node;
  }
  static Value binary(char Op, Value Lhs, Value Rhs) {
    Value Node = node(Expr::Kind::Binary);
    Node->Name = std::string(1, Op);
    Node->Lhs = std::move(Lhs);
    Node->Rhs = std::move(Rhs);
    return Node;
  }
};

/// Evaluates parameter expressions as they parse, with the operations
/// Expr::evaluate applies to the tree TreeBuilder would build. No formal
/// is bound at top level, so an identifier is std::nullopt.
struct ValueBuilder {
  using Value = std::optional<double>;

  static Value number(double V) { return V; }
  static Value pi() { return M_PI; }
  static Value param(std::string_view) { return std::nullopt; }
  static Value unary(std::string_view Op, Value V) {
    return V ? applyUnary(Op, *V) : std::nullopt;
  }
  static Value binary(char Op, Value L, Value R) {
    return L && R ? applyBinary(std::string_view(&Op, 1), *L, *R)
                  : std::nullopt;
  }
};

/// A numeric literal's value, correctly rounded as strtod gives it.
inline double parseReal(std::string_view Text) {
  double V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Ec == std::errc() && Ptr == Text.data() + Text.size())
    return V;
  // Overflow and underflow, where strtod's result is defined and
  // from_chars leaves V unset.
  return std::strtod(std::string(Text).c_str(), nullptr);
}

/// Parses a token of digits; false when its value exceeds MaxImportQubits.
inline bool parseCount(std::string_view Digits, uint32_t &Out) {
  uint64_t V = 0;
  for (char C : Digits) {
    V = V * 10 + static_cast<uint64_t>(C - '0');
    if (V > MaxImportQubits)
      return false;
  }
  Out = static_cast<uint32_t>(V);
  return true;
}

/// The grammar, over a sink with this interface:
///   using Builder;  // TreeBuilder or ValueBuilder, for top-level calls
///   void version(std::string_view);
///   void include(std::string_view);
///   bool reg(bool IsQuantum, std::string_view Name, uint32_t Size);
///   bool gateDef(GateDef &&);
///   bool call(std::string_view Name, unsigned Line,
///             std::vector<Builder::Value> &Params,
///             const std::vector<ArgRef> &Args);
///   bool measure(const ArgRef &Src, const ArgRef &Dst);
///   bool barrier(const std::vector<ArgRef> &Args);
///   bool reset(const ArgRef &Arg);
/// Each bool callback returns false to stop the parse early.
template <typename Sink> class Grammar {
public:
  Grammar(std::string_view Source, Sink &S) : Lex(Source), S(S) {}

  /// Feeds every statement to the sink. False on a syntax error (error()
  /// says where) or when the sink stopped the parse (error() is empty).
  bool run() {
    if (!parseHeader())
      return false;
    while (!peek().is(TokenKind::EndOfFile)) {
      if (peek().is(TokenKind::Error))
        return error(peek(), "");
      if (!parseStatement())
        return false;
    }
    return true;
  }

  const std::string &error() const { return ErrorMessage; }

private:
  using Value = typename Sink::Builder::Value;

  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const TokenView &peek() const { return Lex.peek(); }
  TokenView advance() { return Lex.advance(); }

  bool expect(TokenKind Kind, const char *What) {
    if (peek().is(Kind)) {
      advance();
      return true;
    }
    return error(peek(), std::string("expected ") + What);
  }

  bool error(const TokenView &At, const std::string &Message) {
    if (ErrorMessage.empty()) {
      // A lexical Error token carries its own diagnostic (e.g. "malformed
      // real literal"); surface that instead of the parser's expectation,
      // which would otherwise mask the real problem mid-statement.
      std::string Shown = At.is(TokenKind::Error) && !At.Text.empty()
                              ? std::string(At.Text)
                              : Message;
      ErrorMessage = formatString("line %u, column %u: %s", At.Line,
                                  At.Column, Shown.c_str());
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  bool parseHeader() {
    // Optional "OPENQASM <real>;"
    if (peek().isIdentifier("OPENQASM")) {
      advance();
      if (!peek().is(TokenKind::Real) && !peek().is(TokenKind::Integer))
        return error(peek(), "expected version number after OPENQASM");
      S.version(advance().Text);
      if (!expect(TokenKind::Semicolon, "';' after version"))
        return false;
    }
    return true;
  }

  bool parseStatement() {
    const TokenView &T = peek();
    if (!T.is(TokenKind::Identifier))
      return error(T, "expected a statement");
    if (T.Text == "include")
      return parseInclude();
    if (T.Text == "qreg" || T.Text == "creg")
      return parseRegDecl();
    if (T.Text == "gate")
      return parseGateDef(/*IsOpaque=*/false);
    if (T.Text == "opaque")
      return parseGateDef(/*IsOpaque=*/true);
    if (T.Text == "measure")
      return parseMeasure();
    if (T.Text == "barrier")
      return parseBarrier();
    if (T.Text == "reset")
      return parseReset();
    if (T.Text == "if")
      return error(T, "classical control ('if') is not supported");
    std::string_view Name;
    unsigned Line = 0;
    return parseCall<typename Sink::Builder>(Name, Line, Params) &&
           S.call(Name, Line, Params, Args);
  }

  bool parseInclude() {
    advance(); // include
    if (!peek().is(TokenKind::StringLiteral))
      return error(peek(), "expected a string after include");
    S.include(advance().Text);
    return expect(TokenKind::Semicolon, "';' after include");
  }

  bool parseRegDecl() {
    bool IsQuantum = advance().Text == "qreg";
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected register name");
    std::string_view Name = advance().Text;
    if (!expect(TokenKind::LBracket, "'['"))
      return false;
    if (!peek().is(TokenKind::Integer))
      return error(peek(), "expected register size");
    uint32_t Size = 0;
    if (!parseCount(peek().Text, Size))
      return error(peek(), "register size exceeds 2147483647");
    if (IsQuantum && (QubitTotal += Size) > MaxImportQubits)
      return error(peek(), "total qubit count exceeds 2147483647");
    advance();
    if (!expect(TokenKind::RBracket, "']'") ||
        !expect(TokenKind::Semicolon, "';'"))
      return false;
    return S.reg(IsQuantum, Name, Size);
  }

  bool parseGateDef(bool IsOpaque) {
    advance(); // gate / opaque
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected gate name");
    GateDef Def;
    Def.Name = std::string(advance().Text);
    Def.IsOpaque = IsOpaque;

    if (peek().is(TokenKind::LParen)) {
      advance();
      while (!peek().is(TokenKind::RParen)) {
        if (!peek().is(TokenKind::Identifier))
          return error(peek(), "expected parameter name");
        Def.ParamNames.emplace_back(advance().Text);
        if (peek().is(TokenKind::Comma))
          advance();
      }
      advance(); // ')'
    }
    // Qubit formal names.
    for (;;) {
      if (!peek().is(TokenKind::Identifier))
        return error(peek(), "expected qubit parameter name");
      Def.QubitNames.emplace_back(advance().Text);
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (IsOpaque) {
      if (!expect(TokenKind::Semicolon, "';' after opaque declaration"))
        return false;
      return S.gateDef(std::move(Def));
    }
    if (!expect(TokenKind::LBrace, "'{'"))
      return false;
    while (!peek().is(TokenKind::RBrace)) {
      if (peek().is(TokenKind::EndOfFile))
        return error(peek(), "unterminated gate body");
      if (peek().isIdentifier("barrier")) {
        // Barriers inside bodies do not affect unitary semantics; skip.
        while (!peek().is(TokenKind::Semicolon) &&
               !peek().is(TokenKind::EndOfFile) &&
               !peek().is(TokenKind::Error))
          advance();
        if (!expect(TokenKind::Semicolon, "';'"))
          return false;
        continue;
      }
      std::string_view Name;
      unsigned Line = 0;
      if (!parseCall<TreeBuilder>(Name, Line, BodyParams))
        return false;
      Def.Body.push_back(makeGateCall(Name, Line, BodyParams, Args));
    }
    advance(); // '}'
    return S.gateDef(std::move(Def));
  }

  bool parseMeasure() {
    advance(); // measure
    ArgRef Src, Dst;
    if (!parseArgument(Src))
      return false;
    if (!expect(TokenKind::Arrow, "'->' in measure"))
      return false;
    if (!parseArgument(Dst))
      return false;
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    return S.measure(Src, Dst);
  }

  bool parseBarrier() {
    advance(); // barrier
    Args.clear();
    for (;;) {
      ArgRef Arg;
      if (!parseArgument(Arg))
        return false;
      Args.push_back(Arg);
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    return S.barrier(Args);
  }

  bool parseReset() {
    advance(); // reset
    ArgRef Arg;
    if (!parseArgument(Arg))
      return false;
    if (!expect(TokenKind::Semicolon, "';'"))
      return false;
    return S.reset(Arg);
  }

  /// A gate call; its parameters go to \p CallParams, its arguments to
  /// Args.
  template <typename B>
  bool parseCall(std::string_view &Name, unsigned &Line,
                 std::vector<typename B::Value> &CallParams) {
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected gate name");
    Line = peek().Line;
    Name = advance().Text;
    CallParams.clear();
    Args.clear();
    if (peek().is(TokenKind::LParen)) {
      advance();
      if (!peek().is(TokenKind::RParen)) {
        for (;;) {
          typename B::Value E;
          ExprTerms = 0;
          if (!parseAdditive<B>(E))
            return false;
          CallParams.push_back(std::move(E));
          if (peek().is(TokenKind::Comma)) {
            advance();
            continue;
          }
          break;
        }
      }
      if (!expect(TokenKind::RParen, "')'"))
        return false;
    }
    for (;;) {
      ArgRef Arg;
      if (!parseArgument(Arg))
        return false;
      Args.push_back(Arg);
      if (peek().is(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    return expect(TokenKind::Semicolon, "';'");
  }

  bool parseArgument(ArgRef &Arg) {
    if (!peek().is(TokenKind::Identifier))
      return error(peek(), "expected register reference");
    Arg.Reg = advance().Text;
    if (peek().is(TokenKind::LBracket)) {
      advance();
      if (!peek().is(TokenKind::Integer))
        return error(peek(), "expected index");
      if (!parseCount(peek().Text, Arg.Index))
        return error(peek(), "register index exceeds 2147483647");
      Arg.HasIndex = true;
      advance();
      if (!expect(TokenKind::RBracket, "']'"))
        return false;
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  /// Counts one term of the current expression against MaxExprTerms.
  bool countTerm() {
    if (++ExprTerms <= MaxExprTerms)
      return true;
    return error(peek(), formatString("expression has more than %u terms",
                                      MaxExprTerms));
  }

  template <typename B> bool parseAdditive(typename B::Value &Out) {
    if (!parseMultiplicative<B>(Out))
      return false;
    while (peek().is(TokenKind::Plus) || peek().is(TokenKind::Minus)) {
      char Op = advance().Text[0];
      typename B::Value Rhs;
      if (!parseMultiplicative<B>(Rhs))
        return false;
      Out = B::binary(Op, std::move(Out), std::move(Rhs));
    }
    return true;
  }

  template <typename B> bool parseMultiplicative(typename B::Value &Out) {
    if (!parseUnary<B>(Out))
      return false;
    while (peek().is(TokenKind::Star) || peek().is(TokenKind::Slash)) {
      char Op = advance().Text[0];
      typename B::Value Rhs;
      if (!parseUnary<B>(Rhs))
        return false;
      Out = B::binary(Op, std::move(Out), std::move(Rhs));
    }
    return true;
  }

  // Unary minus binds looser than '^' (so "-2^2" is -(2^2)), matching the
  // usual mathematical convention.
  template <typename B> bool parseUnary(typename B::Value &Out) {
    if (peek().is(TokenKind::Minus)) {
      if (!countTerm())
        return false;
      advance();
      typename B::Value Sub;
      if (!parseUnary<B>(Sub))
        return false;
      Out = B::unary("-", std::move(Sub));
      return true;
    }
    return parsePower<B>(Out);
  }

  template <typename B> bool parsePower(typename B::Value &Out) {
    if (!parsePrimary<B>(Out))
      return false;
    if (peek().is(TokenKind::Caret)) {
      advance();
      typename B::Value Rhs;
      if (!parseUnary<B>(Rhs)) // Right associative; permits "2^-3".
        return false;
      Out = B::binary('^', std::move(Out), std::move(Rhs));
    }
    return true;
  }

  template <typename B> bool parsePrimary(typename B::Value &Out) {
    if (!countTerm())
      return false;
    const TokenView &T = peek();
    if (T.is(TokenKind::Integer) || T.is(TokenKind::Real)) {
      Out = B::number(parseReal(advance().Text));
      return true;
    }
    if (T.is(TokenKind::LParen)) {
      advance();
      if (!parseAdditive<B>(Out))
        return false;
      return expect(TokenKind::RParen, "')'");
    }
    if (T.is(TokenKind::Identifier)) {
      std::string_view Name = advance().Text;
      if (Name == "pi") {
        Out = B::pi();
        return true;
      }
      static constexpr std::string_view Functions[] = {"sin", "cos", "tan",
                                                       "exp", "ln",  "sqrt"};
      for (std::string_view Fn : Functions) {
        if (Name != Fn)
          continue;
        if (!expect(TokenKind::LParen, "'(' after function name"))
          return false;
        typename B::Value Arg;
        if (!parseAdditive<B>(Arg))
          return false;
        if (!expect(TokenKind::RParen, "')'"))
          return false;
        Out = B::unary(Fn, std::move(Arg));
        return true;
      }
      // A formal parameter reference (resolved during import).
      Out = B::param(Name);
      return true;
    }
    return error(T, "expected an expression");
  }

  Lexer Lex;
  Sink &S;
  std::vector<Value> Params;                    ///< Of the current call.
  std::vector<std::unique_ptr<Expr>> BodyParams; ///< Of a body's call.
  std::vector<ArgRef> Args;                      ///< Of the current statement.
  uint64_t QubitTotal = 0;
  unsigned ExprTerms = 0;
  std::string ErrorMessage;
};

} // namespace detail
} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_GRAMMAR_H
