//===- support/Json.cpp - Minimal JSON value, parser, writer -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace qlosure;
using namespace qlosure::json;

void Value::set(const std::string &Key, Value V) {
  TheKind = Kind::Object;
  for (auto &Member : Members) {
    if (Member.first == Key) {
      Member.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(Key, std::move(V));
}

const Value *Value::get(const std::string &Key) const {
  for (const auto &Member : Members)
    if (Member.first == Key)
      return &Member.second;
  return nullptr;
}

namespace {

/// True for a character a JSON string carries verbatim, in both
/// directions: everything but the quote, the backslash and controls.
bool isPlainStringChar(unsigned char C) {
  return C >= 0x20 && C != '"' && C != '\\';
}

/// The first character in [P, End) that is not plain, or End. Routed
/// programs are hundreds of kilobytes with one escape per line, so the
/// scan tests eight bytes per step: a byte is flagged when it is below
/// 0x20 or equals '"' or '\\' (the bit tricks can also flag bytes *after*
/// a flagged one, never before, so the lowest flag is exact).
const char *findNonPlain(const char *P, const char *End) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  constexpr uint64_t Ones = 0x0101010101010101ULL;
  constexpr uint64_t Highs = 0x8080808080808080ULL;
  while (End - P >= 8) {
    uint64_t W;
    std::memcpy(&W, P, sizeof(W));
    uint64_t Quote = W ^ (Ones * '"');
    uint64_t Slash = W ^ (Ones * '\\');
    uint64_t Flags = (((W - Ones * 0x20) & ~W) | ((Quote - Ones) & ~Quote) |
                      ((Slash - Ones) & ~Slash)) &
                     Highs;
    if (Flags)
      return P + __builtin_ctzll(Flags) / 8;
    P += 8;
  }
#endif
  while (P != End && isPlainStringChar(static_cast<unsigned char>(*P)))
    ++P;
  return P;
}

} // namespace

void json::escapeString(const std::string &Text, std::string &Out) {
  const char *P = Text.data();
  const char *const End = P + Text.size();
  while (true) {
    const char *Run = findNonPlain(P, End);
    Out.append(P, Run);
    if (Run == End)
      return;
    unsigned char C = static_cast<unsigned char>(*Run);
    P = Run + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      Out += formatString("\\u%04x", C);
    }
  }
}

namespace {

void dumpNumber(double N, std::string &Out) {
  if (std::isnan(N) || std::isinf(N)) {
    // JSON has no NaN/Inf; emit null (stats code never produces these).
    Out += "null";
    return;
  }
  double Integral;
  if (std::modf(N, &Integral) == 0.0 && std::fabs(N) < 1e15) {
    Out += formatString("%lld", static_cast<long long>(N));
    return;
  }
  Out += formatString("%.17g", N);
}

void dumpValue(const Value &V, std::string &Out) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Value::Kind::Number:
    dumpNumber(V.asNumber(), Out);
    return;
  case Value::Kind::String:
    Out += '"';
    escapeString(V.asString(), Out);
    Out += '"';
    return;
  case Value::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Value &Item : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(Item, Out);
    }
    Out += ']';
    return;
  }
  case Value::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &Member : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      escapeString(Member.first, Out);
      Out += "\":";
      dumpValue(Member.second, Out);
    }
    Out += '}';
    return;
  }
  }
}

/// Recursive-descent parser over a raw character range.
class Parser {
public:
  Parser(const std::string &Text) : Text(Text) {}

  ParseResult run() {
    ParseResult Result;
    skipWhitespace();
    if (!parseValue(Result.V, 0)) {
      Result.Error = Error;
      return Result;
    }
    skipWhitespace();
    if (Pos != Text.size()) {
      Result.Error = positioned("trailing characters after JSON document");
      return Result;
    }
    Result.Ok = true;
    return Result;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  std::string positioned(const std::string &Message) const {
    return formatString("offset %zu: %s", Pos, Message.c_str());
  }

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = positioned(Message);
    return false;
  }

  void skipWhitespace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseLiteral(const char *Literal, Value V, Value &Out) {
    size_t Len = std::char_traits<char>::length(Literal);
    if (Text.compare(Pos, Len, Literal) != 0)
      return fail(formatString("expected '%s'", Literal));
    Pos += Len;
    Out = std::move(V);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    const char *const Begin = Text.data();
    const char *const End = Begin + Text.size();
    while (true) {
      const char *Run = findNonPlain(Begin + Pos, End);
      Out.append(Begin + Pos, Run);
      Pos = static_cast<size_t>(Run - Begin);
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C < 0x20)
        return fail("raw control character in string");
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!parseHex4(Code))
          return false;
        // Combine a surrogate pair when one follows; otherwise encode the
        // unit as-is (lone surrogates become replacement-like bytes, which
        // is fine for a protocol that only ships ASCII QASM).
        if (Code >= 0xD800 && Code <= 0xDBFF && Pos + 1 < Text.size() &&
            Text[Pos] == '\\' && Text[Pos + 1] == 'u') {
          size_t Saved = Pos;
          Pos += 2;
          unsigned Low = 0;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          else
            Pos = Saved; // Not a pair; re-read later as its own escape.
        }
        appendUtf8(Code, Out);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= C - '0';
      else if (C >= 'a' && C <= 'f')
        Out |= C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        Out |= C - 'A' + 10;
      else
        return fail("invalid \\u escape digit");
    }
    return true;
  }

  static void appendUtf8(unsigned Code, std::string &Out) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double N = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size())
      return fail("malformed number");
    Out = Value(N);
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWhitespace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == 'n')
      return parseLiteral("null", Value(), Out);
    if (C == 't')
      return parseLiteral("true", Value(true), Out);
    if (C == 'f')
      return parseLiteral("false", Value(false), Out);
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      Out = Value::array();
      skipWhitespace();
      if (consume(']'))
        return true;
      while (true) {
        Value Item;
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.push(std::move(Item));
        skipWhitespace();
        if (consume(']'))
          return true;
        if (!consume(','))
          return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = Value::object();
      skipWhitespace();
      if (consume('}'))
        return true;
      while (true) {
        skipWhitespace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWhitespace();
        if (!consume(':'))
          return fail("expected ':'");
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.set(Key, std::move(Member));
        skipWhitespace();
        if (consume('}'))
          return true;
        if (!consume(','))
          return fail("expected ',' or '}'");
      }
    }
    return parseNumber(Out);
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string Error;
};

} // namespace

std::string Value::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

ParseResult json::parse(const std::string &Text) { return Parser(Text).run(); }
