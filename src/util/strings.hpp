/// \file strings.hpp
/// Small string helpers shared across modules (identifier checks for
/// generated C code, joining, printf-style formatting, JSON scalars).
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace iecd::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins \p parts with \p sep.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if \p s is a valid C identifier ([A-Za-z_][A-Za-z0-9_]*).
bool is_c_identifier(const std::string& s);

/// Makes \p s a valid C identifier by replacing illegal characters with '_'
/// and prefixing a '_' if it starts with a digit.  Empty input -> "_".
std::string sanitize_c_identifier(const std::string& s);

/// Indents every line of \p text by \p spaces spaces.
std::string indent(const std::string& text, int spaces);

/// Escapes \p s for the inside of a JSON string literal: quote, backslash,
/// \n \r \t, and every other control character as \u00XX.
std::string json_escape(const std::string& s);

/// A JSON number with 9 significant digits ("%.9g"): the one deterministic
/// spelling every JSON report in the tree uses.
std::string json_number(double v);

}  // namespace iecd::util
