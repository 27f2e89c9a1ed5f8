#include "obs/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lrd::obs::json {

Value Value::boolean(bool b) {
  Value v(Type::kBool);
  v.bool_ = b;
  return v;
}

Value Value::number(double n) {
  Value v(Type::kNumber);
  v.number_ = n;
  return v;
}

Value Value::string(std::string s) {
  Value v(Type::kString);
  v.string_ = std::move(s);
  return v;
}

Value Value::array() { return Value(Type::kArray); }

Value Value::object() { return Value(Type::kObject); }

const Value* Value::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

const Value* Value::find_non_null(std::string_view key) const noexcept {
  const Value* v = find(key);
  return v != nullptr && !v->is_null() ? v : nullptr;
}

double Value::number_at(std::string_view key, double fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string Value::string_at(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::move(fallback);
}

void Value::push_back(Value v) {
  type_ = Type::kArray;
  items_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  type_ = Type::kObject;
  members_.emplace_back(std::move(key), std::move(v));
}

namespace {

constexpr std::size_t kMaxDepth = 64;

/// The characters a number token runs over: [0-9.eE+-].
constexpr bool is_number_char(char c) noexcept {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/// Reads one value into `*out`, or only checks it when `out` is null.
/// Recursion is bounded by the reader's depth cap.
bool read_value(Reader& r, Value* out) {
  std::string s;
  double d = 0.0;
  bool b = false;
  switch (r.peek()) {
    case Value::Type::kObject: {
      if (out) *out = Value::object();
      std::string_view key;
      for (r.begin_object(); r.next_key(key);) {  // errors stick, ending the loop
        if (out) s.assign(key);  // the view dies with the next reader call
        Value member;
        read_value(r, out ? &member : nullptr);
        if (out) out->set(std::move(s), std::move(member));
      }
      return r.ok();
    }
    case Value::Type::kArray: {
      if (out) *out = Value::array();
      for (r.begin_array(); r.next_item();) {
        Value item;
        read_value(r, out ? &item : nullptr);
        if (out) out->push_back(std::move(item));
      }
      return r.ok();
    }
    case Value::Type::kString:
      if (r.read_string(s) && out) *out = Value::string(std::move(s));
      return r.ok();
    case Value::Type::kBool:
      if (r.read_bool(b) && out) *out = Value::boolean(b);
      return r.ok();
    case Value::Type::kNumber:
      if (r.read_number(d) && out) *out = Value::number(d);
      return r.ok();
    case Value::Type::kNull: break;
  }
  return r.read_null();
}

}  // namespace

bool Reader::begin_value() {
  if (!ok()) return false;
  if (depth_ > kMaxDepth) return set_error("nesting deeper than 64 levels");
  skip_whitespace();
  return pos_ < text_.size() || set_error("unexpected end of input");
}

Value::Type Reader::peek() {
  if (!begin_value()) return Value::Type::kNull;
  switch (text_[pos_]) {
    case '{': return Value::Type::kObject;
    case '[': return Value::Type::kArray;
    case '"': return Value::Type::kString;
    case 't':
    case 'f': return Value::Type::kBool;
    case 'n': return Value::Type::kNull;
    default: return Value::Type::kNumber;
  }
}

bool Reader::read_null() { return begin_value() && literal("null"); }

bool Reader::read_bool(bool& out) {
  if (!begin_value()) return false;
  out = text_[pos_] == 't';
  return literal(out ? "true" : "false");
}

bool Reader::read_number(double& out) {
  if (!begin_value()) return false;
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) return set_error("unexpected character");
  const std::string_view token = text_.substr(start, pos_ - start);
  // from_chars parses the token in place but differs from strtod twice:
  // strtod takes one leading '+', and answers ERANGE for an inexact result
  // at or below the smallest normal, where from_chars returns it. That
  // range never occurs in practice, so strtod decides it on a copy.
  const bool plus = token[0] == '+' && (token.size() == 1 || token[1] != '-');
  const auto [end, ec] = std::from_chars(token.data() + plus, token.data() + token.size(), out);
  bool valid = ec == std::errc() && end == token.data() + token.size();
  if (valid && out != 0.0 && std::fabs(out) <= std::numeric_limits<double>::min()) {
    const std::string copy(token);
    errno = 0;
    out = std::strtod(copy.c_str(), nullptr);
    valid = errno != ERANGE;
  }
  return valid || set_error("malformed number '" + std::string(token) + "'");
}

bool Reader::read_string(std::string& out) {
  std::string_view s;
  if (!begin_value() || !lex_string(s, out)) return false;
  if (s.data() != out.data()) out.assign(s);
  return true;
}

bool Reader::skip_value() { return read_value(*this, nullptr); }

bool Reader::enter(char open) {
  if (!begin_value()) return false;
  if (text_[pos_] != open) return set_error(std::string("expected '") + open + "'");
  ++pos_;
  ++depth_;
  first_ = true;
  return true;
}

bool Reader::next_in_container(char close, const char* expected) {
  if (!ok()) return false;
  skip_whitespace();
  if (peek_char() == close) {
    ++pos_;
    --depth_;
    first_ = false;
    return false;
  }
  if (std::exchange(first_, false)) return true;
  if (peek_char() != ',') return set_error(expected);
  ++pos_;
  return true;
}

bool Reader::next_key(std::string_view& key) {
  if (!next_in_container('}', "expected ',' or '}' in object")) return false;
  skip_whitespace();
  if (peek_char() != '"') return set_error("expected a string object key");
  if (!lex_string(key, key_scratch_)) return false;
  skip_whitespace();
  if (peek_char() != ':') return set_error("expected ':' after object key");
  ++pos_;
  return true;
}

bool Reader::next_item() { return next_in_container(']', "expected ',' or ']' in array"); }

bool Reader::finish() {
  if (!ok()) return false;
  skip_whitespace();
  return pos_ == text_.size() || set_error("trailing content after the JSON value");
}

lrd::Diagnostics Reader::error() const {
  lrd::Diagnostics d = lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.json",
                                             "input is well-formed JSON", error_);
  d.line = static_cast<long>(line_);
  return d;
}

/// Lexes the string literal at the cursor. Without escapes `out` views
/// the input; from the first escape on, the text is decoded in `scratch`.
bool Reader::lex_string(std::string_view& out, std::string& scratch) {
  const std::size_t start = ++pos_;  // past the opening quote
  bool decoded = false;
  while (pos_ < text_.size()) {
    const char ch = text_[pos_];
    if (ch == '"') {
      out = decoded ? std::string_view(scratch) : text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (ch == '\n') return set_error("unterminated string literal");
    if (ch != '\\') {
      if (decoded) scratch += ch;
      ++pos_;
      continue;
    }
    if (!std::exchange(decoded, true)) scratch.assign(text_.substr(start, pos_ - start));
    ++pos_;
    if (pos_ >= text_.size()) return set_error("unterminated escape sequence");
    switch (text_[pos_]) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': {
        if (pos_ + 4 >= text_.size()) return set_error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 1; i <= 4; ++i) {
          const char hex = text_[pos_ + static_cast<std::size_t>(i)];
          code <<= 4;
          if (hex >= '0' && hex <= '9') code += static_cast<unsigned>(hex - '0');
          else if (hex >= 'a' && hex <= 'f') code += static_cast<unsigned>(hex - 'a') + 10;
          else if (hex >= 'A' && hex <= 'F') code += static_cast<unsigned>(hex - 'A') + 10;
          else return set_error("invalid \\u escape");
        }
        pos_ += 4;
        // Encode the code point as UTF-8 (surrogates pass through as
        // three-byte sequences; the artifacts never contain them).
        if (code < 0x80) {
          scratch += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch += static_cast<char>(0xC0 | (code >> 6));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch += static_cast<char>(0xE0 | (code >> 12));
          scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: return set_error("unknown escape sequence");
    }
    ++pos_;
  }
  return set_error("unterminated string literal");
}

bool Reader::literal(std::string_view word) {
  if (text_.compare(pos_, word.size(), word) != 0)
    return set_error("expected '" + std::string(word) + "'");
  pos_ += word.size();
  return true;
}

void Reader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char ch = text_[pos_];
    if (ch == '\n') ++line_;
    if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
    ++pos_;
  }
}

bool Reader::set_error(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

lrd::Expected<Value> parse(std::string_view text) {
  Reader r(text);
  Value v;
  if (!read_value(r, &v) || !r.finish()) return r.error();
  return v;
}

lrd::Expected<Value> parse_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.json",
                                 "artifact file is readable", "cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.json",
                                 "artifact file is readable", "read failure on " + path);
  }
  auto parsed = parse(text);
  if (!parsed) {
    lrd::Diagnostics d = parsed.diagnostics();
    d.message = path + ": " + d.message;
    return d;
  }
  return parsed;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace lrd::obs::json
