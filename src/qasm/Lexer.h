//===- qasm/Lexer.h - OpenQASM 2.0 lexer -------------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for OpenQASM 2.0 source. Lexer is the one scanner behind the
/// parser and the importer: it yields one token at a time as a view into
/// the source, with line/column positions for diagnostics, and skips
/// comments. tokenize() drains it into an owning token list.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_LEXER_H
#define QLOSURE_QASM_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qlosure {
namespace qasm {

enum class TokenKind : uint8_t {
  Identifier, ///< Includes keywords; the parser distinguishes them.
  Integer,
  Real,
  StringLiteral,
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semicolon,
  Comma,
  Arrow, ///< "->"
  Equals, ///< "=="
  Plus,
  Minus,
  Star,
  Slash,
  Caret,
  EndOfFile,
  Error
};

/// A token that views its text: a slice of the source, the contents of a
/// string literal without quotes, or an Error token's message.
struct TokenView {
  TokenKind Kind = TokenKind::Error;
  std::string_view Text;
  unsigned Line = 0;
  unsigned Column = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isIdentifier(std::string_view Name) const {
    return Kind == TokenKind::Identifier && Text == Name;
  }
};

/// Scans \p Source lazily, one token ahead. Once it reaches EndOfFile or
/// an Error token, that token repeats. Views stay valid while both the
/// source and the lexer live (an Error token's message lives in the
/// lexer).
class Lexer {
public:
  explicit Lexer(std::string_view Source);
  Lexer(const Lexer &) = delete;
  Lexer &operator=(const Lexer &) = delete;

  const TokenView &peek() const { return Current; }

  /// Returns the current token and scans the next one.
  TokenView advance() {
    TokenView T = Current;
    if (!Current.is(TokenKind::EndOfFile) && !Current.is(TokenKind::Error))
      scan();
    return T;
  }

private:
  void scan();
  void skipTrivia();
  void error(std::string Message);

  const char *Cur;
  const char *End;
  const char *LineStart;
  unsigned Line = 1;
  TokenView Current;
  std::string ErrorMessage;
};

/// An owning token, as tokenize() returns it.
struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string Text;
  unsigned Line = 0;
  unsigned Column = 0;
};

/// Tokenizes \p Source. On a lexical error the stream ends with an Error
/// token whose Text holds the message; otherwise it ends with EndOfFile.
std::vector<Token> tokenize(std::string_view Source);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_LEXER_H
