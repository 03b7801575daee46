#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mto {
namespace {

[[noreturn]] void TypeError(const char* want, JsonValue::Type got) {
  static const char* kNames[] = {"null",   "bool",  "number",
                                 "string", "array", "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           kNames[static_cast<int>(got)]);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    std::ostringstream oss;
    oss << "json parse error at offset " << pos_ << ": " << what;
    throw std::runtime_error(oss.str());
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[': {
        // Recursion is bounded so hostile input fails loudly instead of
        // overflowing the stack.
        if (++depth_ > kMaxJsonDepth) Fail("nesting too deep");
        JsonValue v = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue(ParseString());
      case 't':
        if (!ConsumeLiteral("true")) Fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!ConsumeLiteral("false")) Fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!ConsumeLiteral("null")) Fail("bad literal");
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      if (!obj.MutableObject().emplace(std::move(key), ParseValue()).second) {
        Fail("duplicate object key");
      }
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return obj;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.MutableArray().push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return arr;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = ReadHexQuad();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            Fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // UTF-16 surrogate pair: a high surrogate must be followed by
            // an escaped low surrogate; together they name one non-BMP
            // code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              Fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            const unsigned low = ReadHexQuad();
            if (low < 0xDC00 || low > 0xDFFF) {
              Fail("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  unsigned ReadHexQuad() {
    if (pos_ + 4 > text_.size()) Fail("short \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else Fail("bad \\u escape");
    }
    return code;
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      Fail("malformed number");
    }
    // strtod overflows to ±inf, which DumpJson could not write back as JSON.
    if (!std::isfinite(value)) {
      pos_ = start;
      Fail("number out of range");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t depth_ = 0;  ///< open arrays/objects around the current value
  size_t pos_ = 0;
};

}  // namespace

bool JsonValue::AsBool() const {
  if (type_ != Type::kBool) TypeError("bool", type_);
  return bool_;
}

double JsonValue::AsDouble() const {
  if (type_ != Type::kNumber) TypeError("number", type_);
  return number_;
}

uint64_t JsonValue::AsUint() const {
  const double d = AsDouble();
  // 2^64 exactly; casting doubles at or above it is undefined behavior.
  if (d < 0.0 || d != std::floor(d) || d >= 18446744073709551616.0) {
    throw std::runtime_error("json: expected a non-negative integer");
  }
  return static_cast<uint64_t>(d);
}

const std::string& JsonValue::AsString() const {
  if (type_ != Type::kString) TypeError("string", type_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (type_ != Type::kArray) TypeError("array", type_);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  if (type_ != Type::kObject) TypeError("object", type_);
  return object_;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("json: missing key \"" + key + "\"");
  }
  return it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) != 0;
}

std::vector<JsonValue>& JsonValue::MutableArray() {
  if (type_ != Type::kArray) TypeError("array", type_);
  return array_;
}

std::map<std::string, JsonValue>& JsonValue::MutableObject() {
  if (type_ != Type::kObject) TypeError("object", type_);
  return object_;
}

std::vector<std::string> JsonValue::Keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : AsObject()) keys.push_back(key);
  return keys;
}

namespace {

void AppendEscaped(const std::string& s, std::string& out) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(double d, std::string& out) {
  // Integers in the exactly-representable range print as integers so
  // counters survive a parse → dump → parse round trip digit-for-digit.
  if (d == std::floor(d) && !std::isinf(d) &&
      std::abs(d) < 9007199254740992.0 /* 2^53 */) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void DumpTo(const JsonValue& value, int indent, int depth, std::string& out) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<size_t>(indent) * static_cast<size_t>(d), ' ');
  };
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += value.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      AppendNumber(value.AsDouble(), out);
      return;
    case JsonValue::Type::kString:
      AppendEscaped(value.AsString(), out);
      return;
    case JsonValue::Type::kArray: {
      const auto& arr = value.AsArray();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        DumpTo(arr[i], indent, depth + 1, out);
      }
      newline(depth);
      out.push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      const auto& obj = value.AsObject();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(key, out);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        DumpTo(member, indent, depth + 1, out);
      }
      newline(depth);
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

std::string DumpJson(const JsonValue& value, int indent) {
  std::string out;
  DumpTo(value, indent, 0, out);
  return out;
}

void WriteJsonFile(const std::string& path, const JsonValue& value,
                   int indent) {
  // Write-to-temp then rename: a reader (or a crash) never sees a
  // half-written document, only the previous complete one or the new
  // complete one. rename(2) is atomic within a filesystem, and telemetry
  // temp files live next to their targets.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("json: cannot write file " + tmp);
    out << DumpJson(value, indent) << '\n';
    out.flush();
    if (!out) throw std::runtime_error("json: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("json: cannot rename " + tmp + " to " + path);
  }
}

JsonValue ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

JsonValue ParseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("json: cannot read file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

}  // namespace mto
