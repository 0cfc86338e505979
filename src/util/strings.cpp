#include "util/strings.hpp"

#include <cctype>
#include <cstdio>

namespace iecd::util {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool is_c_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string sanitize_c_identifier(const std::string& s) {
  if (s.empty()) return "_";
  std::string out;
  out.reserve(s.size() + 1);
  if (std::isdigit(static_cast<unsigned char>(s[0]))) out += '_';
  for (char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  }
  return out;
}

std::string indent(const std::string& text, int spaces) {
  const std::string pad(static_cast<std::size_t>(spaces < 0 ? 0 : spaces), ' ');
  std::string out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string line = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    if (!line.empty()) out += pad;
    out += line;
    if (nl == std::string::npos) break;
    out += '\n';
    start = nl + 1;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace iecd::util
