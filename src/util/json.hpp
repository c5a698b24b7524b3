#pragma once

// The one JSON reader and writer of the library. Schema code (obs
// snapshots, testkit corpus cases) writes its documents with the two
// append helpers and reads them by driving a Reader through the structure
// it expects, skipping any member it does not know.

#include <cstdint>
#include <string>

namespace hybrid::util::json {

/// Appends `s` as a quoted JSON string: `"`, `\`, newline and tab get their
/// two-character escapes, every other control character becomes \u00XX.
void appendString(std::string& out, const std::string& s);

/// Appends `v` printed with %.17g, which strtod reads back bit for bit.
void appendNumber(std::string& out, double v);

/// Recursive-descent cursor over one JSON text. The first malformed token
/// clears ok() for good and stops every object() and array() loop, so a
/// schema reader checks ok() once, at the end.
class Reader {
 public:
  /// `text` must outlive the reader.
  explicit Reader(const std::string& text) : p_(text.c_str()), end_(p_ + text.size()) {}
  explicit Reader(std::string&&) = delete;

  bool ok() const { return ok_; }

  /// Skips whitespace, then consumes `c`; a different character fails.
  bool consume(char c);

  /// A quoted string. Escapes \u0080 and above are not decoded and fail.
  std::string string();
  double number();
  /// An unsigned integer, exact up to 2^64 - 1. A token with a fraction or
  /// an exponent is read as a double and truncated; a negative or
  /// out-of-range value fails.
  std::uint64_t uint64();
  /// Skips one value of any type: string, number, object, array, true,
  /// false or null.
  void skip();

  /// Calls `member(key)` for each member of an object; `member` reads the
  /// value (skip() for an unknown key).
  template <typename Fn>
  void object(Fn&& member) {
    if (!consume('{')) return;
    if (peek('}')) {
      consume('}');
      return;
    }
    while (ok_) {
      const std::string key = string();
      consume(':');
      member(key);
      if (!peek(',')) break;
      consume(',');
    }
    consume('}');
  }

  /// Calls `element()` for each element of an array; `element` reads it.
  template <typename Fn>
  void array(Fn&& element) {
    if (!consume('[')) return;
    if (peek(']')) {
      consume(']');
      return;
    }
    while (ok_) {
      element();
      if (!peek(',')) break;
      consume(',');
    }
    consume(']');
  }

 private:
  void skipWs();
  /// Skips whitespace; true when the next character is `c`.
  bool peek(char c);
  void literal(const char* word);

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace hybrid::util::json
