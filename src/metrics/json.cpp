#include "metrics/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace raptee::metrics {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  if (ec != std::errc{}) return "null";
  return std::string(buf.data(), end);
}

namespace {

std::string quoted(std::string_view text) {
  std::string out(1, '"');
  out += json_escape(text);
  out += '"';
  return out;
}

}  // namespace

JsonObject& JsonObject::append(std::string_view key, std::string_view serialized) {
  if (!body_.empty()) body_ += ',';
  body_ += quoted(key);
  body_ += ':';
  body_ += serialized;
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  return append(key, json_number(value));
}
JsonObject& JsonObject::field(std::string_view key, std::int64_t value) {
  return append(key, std::to_string(value));
}
JsonObject& JsonObject::field(std::string_view key, std::uint64_t value) {
  return append(key, std::to_string(value));
}
JsonObject& JsonObject::field(std::string_view key, int value) {
  return append(key, std::to_string(value));
}
JsonObject& JsonObject::field(std::string_view key, unsigned value) {
  return append(key, std::to_string(value));
}
JsonObject& JsonObject::field(std::string_view key, bool value) {
  return append(key, value ? "true" : "false");
}
JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  return append(key, quoted(value));
}
JsonObject& JsonObject::field(std::string_view key, const char* value) {
  return append(key, quoted(value));
}
JsonObject& JsonObject::field(std::string_view key, const std::optional<double>& value) {
  return value ? field(key, *value) : field_null(key);
}
JsonObject& JsonObject::field_null(std::string_view key) { return append(key, "null"); }
JsonObject& JsonObject::field_raw(std::string_view key, std::string_view raw_json) {
  return append(key, raw_json);
}

JsonArray& JsonArray::append(std::string_view serialized) {
  if (!body_.empty()) body_ += ',';
  body_ += serialized;
  return *this;
}
JsonArray& JsonArray::item(double value) { return append(json_number(value)); }
JsonArray& JsonArray::item(std::string_view value) { return append(quoted(value)); }
JsonArray& JsonArray::item_raw(std::string_view raw_json) { return append(raw_json); }

std::string json_series(const std::vector<double>& values) {
  JsonArray arr;
  for (const double v : values) arr.item(v);
  return arr.str();
}

// ------------------------------------------------------------- validation
namespace {

/// Recursive-descent RFC 8259 validator over a string_view cursor.
class Validator {
 public:
  explicit Validator(std::string_view text) : text_(text) {}

  bool run() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              if (eof() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
                return false;
              }
              ++pos_;
            }
            break;
          }
          default: return false;
        }
      }
    }
    return false;
  }

  bool digits() {
    std::size_t start = pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return pos_ > start;
  }

  bool number() {
    consume('-');
    if (eof()) return false;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_valid(std::string_view text) { return Validator(text).run(); }

bool write_text_file(const std::string& path, std::string_view content) {
  const std::filesystem::path fs_path(path);
  std::error_code ec;
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

}  // namespace raptee::metrics
