#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace eco {
namespace {

const Json& NullJson() {
  static const Json null;
  return null;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    SkipWs();
    Json value;
    if (!ParseValue(value)) return Result<Json>::Error(error_);
    SkipWs();
    if (pos_ != text_.size()) {
      return Result<Json>::Error("json: trailing characters at offset " +
                                 std::to_string(pos_));
    }
    return value;
  }

 private:
  bool Fail(const std::string& message) {
    error_ = "json: " + message + " at offset " + std::to_string(pos_);
    return false;
  }

  // The six characters isspace accepts in the C locale, without the locale
  // lookup.
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }

  void SkipWs() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Peek(char& c) {
    if (pos_ >= text_.size()) return false;
    c = text_[pos_];
    return true;
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    std::size_t i = 0;
    while (literal[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != literal[i]) {
        return false;
      }
      ++i;
    }
    pos_ += i;
    return true;
  }

  bool ParseValue(Json& out) {
    SkipWs();
    char c = 0;
    if (!Peek(c)) return Fail("unexpected end of input");
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        if (!ParseString(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeLiteral("true")) return Fail("bad literal");
        out = Json(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("bad literal");
        out = Json(false);
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("bad literal");
        out = Json();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Json& out) {
    if (!Consume('{')) return Fail("expected '{'");
    JsonObject obj;
    SkipWs();
    if (Consume('}')) {
      out = Json(std::move(obj));
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      Json value;
      if (!ParseValue(value)) return false;
      // Dump writes keys in sorted order, so on our own files the end hint
      // is exact; a repeated key still keeps its last value.
      obj.insert_or_assign(obj.end(), std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}'");
    }
    out = Json(std::move(obj));
    return true;
  }

  bool ParseArray(Json& out) {
    if (!Consume('[')) return Fail("expected '['");
    JsonArray arr;
    SkipWs();
    if (Consume(']')) {
      out = Json(std::move(arr));
      return true;
    }
    while (true) {
      Json value;
      if (!ParseValue(value)) return false;
      arr.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']'");
    }
    out = Json(std::move(arr));
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // Encode the BMP code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Scans the run of number characters after an optional sign and accepts it
  // only if it is one whole decimal number: the tokens strtod accepted,
  // parsed in place.
  bool ParseNumber(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any = false;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) {
      ++pos_;
      any = true;
    }
    if (!any) return Fail("expected value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (*first == '+') {
      // from_chars takes no '+'; strtod took one, though not before a '-'.
      ++first;
      if (*first == '-') return FailNumber(start);
    }
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (end != last || ec == std::errc::invalid_argument) {
      return FailNumber(start);
    }
    if (ec == std::errc::result_out_of_range) {
      // Underflow reads as a signed zero, as strtod returned it; overflow
      // reads as infinity and fails below.
      v = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    if (!std::isfinite(v)) return FailNumber(start);
    out = Json(v);
    return true;
  }

  static bool IsNumberChar(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '-' || c == '+';
  }

  bool FailNumber(std::size_t start) {
    return Fail("bad number '" + text_.substr(start, pos_ - start) + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void AppendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// The bytes of "%lld" for integral values below 2^53 and of "%.17g"
// otherwise; to_chars is specified to match printf in the C locale.
void AppendNumber(std::string& out, double v) {
  char buf[40];
  const auto [end, ec] =
      v == std::floor(v) && std::abs(v) < 9.007199254740992e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                          17);
  (void)ec;  // 40 bytes hold any double at precision 17
  out.append(buf, end);
}

}  // namespace

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) return NullJson();
  const auto it = object_.find(key);
  return it == object_.end() ? NullJson() : it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(out, key);
        out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace eco
