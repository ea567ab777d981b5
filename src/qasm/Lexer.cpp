//===- qasm/Lexer.cpp - OpenQASM 2.0 lexer -----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Lexer.h"

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}

bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

} // namespace

Lexer::Lexer(std::string_view Source)
    : Cur(Source.data()), End(Source.data() + Source.size()),
      LineStart(Source.data()) {
  scan();
}

// A NUL byte ends a comment or string literal as the end of input does;
// the scanner then reports it as an unexpected character.
void Lexer::skipTrivia() {
  for (;;) {
    if (Cur == End)
      return;
    char C = *Cur;
    if (C == '\n') {
      ++Line;
      LineStart = ++Cur;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Cur;
      continue;
    }
    if (C != '/' || End - Cur < 2 || (Cur[1] != '/' && Cur[1] != '*'))
      return;
    if (Cur[1] == '/') {
      while (Cur != End && *Cur != '\n' && *Cur != '\0')
        ++Cur;
      continue;
    }
    Cur += 2;
    while (Cur != End && *Cur != '\0' &&
           !(*Cur == '*' && End - Cur >= 2 && Cur[1] == '/')) {
      if (*Cur == '\n') {
        ++Line;
        LineStart = Cur + 1;
      }
      ++Cur;
    }
    if (Cur != End && *Cur != '\0')
      Cur += 2;
  }
}

void Lexer::error(std::string Message) {
  ErrorMessage = std::move(Message);
  Current.Kind = TokenKind::Error;
  Current.Text = ErrorMessage;
}

void Lexer::scan() {
  skipTrivia();
  const char *Start = Cur;
  Current.Line = Line;
  Current.Column = static_cast<unsigned>(Start - LineStart) + 1;
  if (Cur == End) {
    Current.Kind = TokenKind::EndOfFile;
    Current.Text = {};
    return;
  }
  auto token = [&](TokenKind Kind) {
    Current.Kind = Kind;
    Current.Text = std::string_view(Start, static_cast<size_t>(Cur - Start));
  };

  char Ch = *Cur;
  if (isIdentStart(Ch)) {
    ++Cur;
    while (Cur != End && isIdentChar(*Cur))
      ++Cur;
    return token(TokenKind::Identifier);
  }
  if (isDigit(Ch) || (Ch == '.' && End - Cur >= 2 && isDigit(Cur[1]))) {
    bool IsReal = false;
    while (Cur != End && isDigit(*Cur))
      ++Cur;
    if (Cur != End && *Cur == '.') {
      IsReal = true;
      ++Cur;
      while (Cur != End && isDigit(*Cur))
        ++Cur;
    }
    if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
      IsReal = true;
      ++Cur;
      if (Cur != End && (*Cur == '+' || *Cur == '-'))
        ++Cur;
      // An exponent marker with no digits ("1e", "1e+", "2.5E-") is not
      // a number; reject it here with a position.
      if (Cur == End || !isDigit(*Cur))
        return error("malformed real literal '" +
                         std::string(Start, static_cast<size_t>(Cur - Start)) +
                         "': exponent has no digits");
      while (Cur != End && isDigit(*Cur))
        ++Cur;
    }
    return token(IsReal ? TokenKind::Real : TokenKind::Integer);
  }
  if (Ch == '"') {
    const char *Body = ++Cur;
    while (Cur != End && *Cur != '"' && *Cur != '\0') {
      if (*Cur == '\n') {
        ++Line;
        LineStart = Cur + 1;
      }
      ++Cur;
    }
    if (Cur == End || *Cur == '\0')
      return error("unterminated string literal");
    Current.Kind = TokenKind::StringLiteral;
    Current.Text = std::string_view(Body, static_cast<size_t>(Cur - Body));
    ++Cur;
    return;
  }

  ++Cur;
  switch (Ch) {
  case '(':
    return token(TokenKind::LParen);
  case ')':
    return token(TokenKind::RParen);
  case '[':
    return token(TokenKind::LBracket);
  case ']':
    return token(TokenKind::RBracket);
  case '{':
    return token(TokenKind::LBrace);
  case '}':
    return token(TokenKind::RBrace);
  case ';':
    return token(TokenKind::Semicolon);
  case ',':
    return token(TokenKind::Comma);
  case '+':
    return token(TokenKind::Plus);
  case '*':
    return token(TokenKind::Star);
  case '/':
    return token(TokenKind::Slash);
  case '^':
    return token(TokenKind::Caret);
  case '-':
    if (Cur != End && *Cur == '>') {
      ++Cur;
      return token(TokenKind::Arrow);
    }
    return token(TokenKind::Minus);
  case '=':
    if (Cur != End && *Cur == '=') {
      ++Cur;
      return token(TokenKind::Equals);
    }
    return error("stray '='");
  default:
    return error(std::string("unexpected character '") + Ch + "'");
  }
}

std::vector<Token> qasm::tokenize(std::string_view Source) {
  std::vector<Token> Tokens;
  Lexer Lex(Source);
  for (;;) {
    TokenView T = Lex.advance();
    Tokens.push_back({T.Kind, std::string(T.Text), T.Line, T.Column});
    if (T.is(TokenKind::EndOfFile) || T.is(TokenKind::Error))
      return Tokens;
  }
}
