#include "util/json.h"

#include <cctype>
#include <cstdlib>
#include <ostream>

#include "util/error.h"

namespace actnet::util {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "json: " << what << " at " << line << ":" << col;
    throw Error(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') return JsonValue(std::move(out));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return JsonValue(std::move(out));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default:
          --pos_;
          fail("bad escape sequence");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("bad \\u escape");
      }
    }
    // BMP code points only (no surrogate pairing): enough for config files.
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
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string field = text_.substr(start, pos_ - start);
    // strtod is laxer than the JSON grammar: it accepts leading zeros
    // ("01"), a bare leading dot, hex and inf/nan. Enforce the grammar's
    // integer-part rule here; strtod's full-consume check covers the rest.
    const std::size_t int_start = field[0] == '-' ? 1 : 0;
    if (int_start >= field.size() ||
        !std::isdigit(static_cast<unsigned char>(field[int_start])) ||
        (field[int_start] == '0' && int_start + 1 < field.size() &&
         std::isdigit(static_cast<unsigned char>(field[int_start + 1])))) {
      pos_ = start;
      fail("bad number");
    }
    char* end = nullptr;
    const double v = std::strtod(field.c_str(), &end);
    if (end != field.c_str() + field.size()) {
      pos_ = start;
      fail("bad number");
    }
    return JsonValue(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_error(const char* wanted) {
  throw Error(std::string("json: value is not ") + wanted);
}

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::optional<JsonValue> JsonValue::try_parse(const std::string& text) {
  try {
    return parse(text);
  } catch (const Error&) {
    return std::nullopt;
  }
}

bool JsonValue::as_bool() const {
  if (!is_bool()) kind_error("a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) kind_error("a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) kind_error("an object");
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw Error("json: missing key '" + key + "'");
  return *v;
}

bool JsonValue::has(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const Object& o = as_object();
  const auto it = o.find(key);
  return it == o.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace actnet::util
