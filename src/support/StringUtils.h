//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting and splitting helpers shared by the QASM frontend,
/// the table printer and the benchmark harness.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SUPPORT_STRINGUTILS_H
#define QLOSURE_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace qlosure {

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p Text on \p Separator; empty fields are kept.
std::vector<std::string> splitString(const std::string &Text, char Separator);

/// Removes leading and trailing ASCII whitespace.
std::string trimString(const std::string &Text);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

} // namespace qlosure

#endif // QLOSURE_SUPPORT_STRINGUTILS_H
