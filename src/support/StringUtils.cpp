//===- support/StringUtils.cpp - String helpers ----------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace qlosure;

std::string qlosure::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::vector<std::string> qlosure::splitString(const std::string &Text,
                                              char Separator) {
  std::vector<std::string> Fields;
  std::string Current;
  for (char C : Text) {
    if (C == Separator) {
      Fields.push_back(Current);
      Current.clear();
    } else {
      Current.push_back(C);
    }
  }
  Fields.push_back(Current);
  return Fields;
}

std::string qlosure::trimString(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool qlosure::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}
