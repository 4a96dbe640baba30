// Reference JSON number codec: the snprintf / substr + strtod code that
// common/json.cpp's to_chars / from_chars codec replaced, kept in the test
// tree as the oracle the product's number bytes and parse results are
// checked against (test_common_csv_json.cpp).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace eco::ref {

// The bytes Json::Dump wrote for a number: "%lld" for integral values below
// 2^53 in magnitude, "%.17g" otherwise.
inline std::string DumpNumber(double v) {
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

inline bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '-' || c == '+';
}

// Json::Parse of a document holding only `token`, for tokens made of number
// characters: an optional sign, then a run of number characters, all of
// which strtod must consume into a finite value.
inline bool ParseNumberDocument(const std::string& token, double& out) {
  std::size_t pos = 0;
  if (pos < token.size() && (token[pos] == '-' || token[pos] == '+')) ++pos;
  const std::size_t digits = pos;
  while (pos < token.size() && IsNumberChar(token[pos])) ++pos;
  if (pos == digits || pos != token.size()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace eco::ref
