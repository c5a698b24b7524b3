#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hybrid::util::json {

void appendString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void appendNumber(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void Reader::skipWs() {
  while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
}

bool Reader::consume(char c) {
  skipWs();
  if (p_ < end_ && *p_ == c) {
    ++p_;
    return true;
  }
  ok_ = false;
  return false;
}

bool Reader::peek(char c) {
  skipWs();
  return p_ < end_ && *p_ == c;
}

std::string Reader::string() {
  std::string out;
  if (!consume('"')) return out;
  while (p_ < end_ && *p_ != '"') {
    char c = *p_++;
    if (c == '\\' && p_ < end_) {
      c = *p_++;
      switch (c) {
        case 'b':
          c = '\b';
          break;
        case 'f':
          c = '\f';
          break;
        case 'n':
          c = '\n';
          break;
        case 'r':
          c = '\r';
          break;
        case 't':
          c = '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i, ++p_) {
            if (p_ >= end_ || std::isxdigit(static_cast<unsigned char>(*p_)) == 0) {
              ok_ = false;
              return out;
            }
            const char h = static_cast<char>(std::tolower(static_cast<unsigned char>(*p_)));
            code = code * 16 + static_cast<unsigned>(h <= '9' ? h - '0' : h - 'a' + 10);
          }
          if (code >= 0x80) {
            ok_ = false;
            return out;
          }
          c = static_cast<char>(code);
          break;
        }
        default:  // \" \\ \/
          break;
      }
    }
    out += c;
  }
  if (p_ >= end_) {
    ok_ = false;
    return out;
  }
  ++p_;  // closing quote
  return out;
}

double Reader::number() {
  skipWs();
  char* numEnd = nullptr;
  const double v = std::strtod(p_, &numEnd);  // the text ends in '\0'
  if (numEnd == p_) {
    ok_ = false;
    return 0.0;
  }
  p_ = numEnd;
  return v;
}

std::uint64_t Reader::uint64() {
  skipWs();
  if (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) {
    char* numEnd = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(p_, &numEnd, 10);
    if (*numEnd != '.' && *numEnd != 'e' && *numEnd != 'E') {
      if (errno == ERANGE) ok_ = false;
      p_ = numEnd;
      return static_cast<std::uint64_t>(v);
    }
  }
  const double v = number();
  if (!(v >= 0.0 && v < 18446744073709551616.0)) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint64_t>(v);
}

void Reader::literal(const char* word) {
  const std::size_t len = std::strlen(word);
  if (static_cast<std::size_t>(end_ - p_) >= len && std::strncmp(p_, word, len) == 0) {
    p_ += len;
  } else {
    ok_ = false;
  }
}

void Reader::skip() {
  skipWs();
  if (p_ >= end_) {
    ok_ = false;
    return;
  }
  switch (*p_) {
    case '"':
      string();
      break;
    case '{':
      object([this](const std::string&) { skip(); });
      break;
    case '[':
      array([this] { skip(); });
      break;
    case 't':
      literal("true");
      break;
    case 'f':
      literal("false");
      break;
    case 'n':
      literal("null");
      break;
    default:
      number();
  }
}

}  // namespace hybrid::util::json
