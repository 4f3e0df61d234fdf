#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/log.hh"

namespace dasdram
{

// --------------------------------------------------------------------
// JsonWriter
// --------------------------------------------------------------------

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!emptyStack_.empty()) {
        if (!emptyStack_.back())
            out_ += ',';
        emptyStack_.back() = false;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    emptyStack_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (emptyStack_.empty() || afterKey_)
        panic("JsonWriter::endObject with no open object");
    emptyStack_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    emptyStack_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (emptyStack_.empty() || afterKey_)
        panic("JsonWriter::endArray with no open array");
    emptyStack_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (emptyStack_.empty() || afterKey_)
        panic("JsonWriter::key outside an object");
    separate();
    out_ += quoted(name);
    out_ += ':';
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += quoted(s);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out_ += "null";
        return *this;
    }
    // %.17g round-trips every double and is deterministic for a fixed
    // value, which keeps sweep output byte-identical across runs.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

std::string
JsonWriter::quoted(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
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
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

// --------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------

const JsonValue *
JsonValue::find(std::string_view name) const
{
    if (kind != Kind::Object)
        return nullptr;
    const JsonValue *found = nullptr;
    for (const auto &[k, v] : object)
        if (k == name)
            found = &v;
    return found;
}

namespace
{

class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : text_(text), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        if (err_)
            *err_ = formatStr("{} at offset {}", msg, pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Null;
            return true;
          case 'N':
            // Extension: some producers emit bare NaN/Infinity for
            // non-finite stats. Our writer never does (it emits null),
            // but the comparison tooling must be able to read them.
            if (!literal("NaN"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Number;
            out.number = std::numeric_limits<double>::quiet_NaN();
            return true;
          case 'I':
            if (!literal("Infinity"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Number;
            out.number = std::numeric_limits<double>::infinity();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        if (literal("Infinity")) {
            out.kind = JsonValue::Kind::Number;
            out.number = -std::numeric_limits<double>::infinity();
            return true;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        std::string num(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double v = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        const char *last = num.data() + num.size();
        std::uint64_t u = 0;
        auto [ptr, ec] = std::from_chars(num.data(), last, u);
        out.exactUint = ec == std::errc() && ptr == last
                            ? std::optional<std::uint64_t>(u)
                            : std::nullopt;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode (BMP only; no surrogate pairs).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos_; // '['
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue elem;
            skipWs();
            if (!parseValue(elem))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos_; // '{'
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string name;
            if (!parseString(name))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':'");
            JsonValue v;
            skipWs();
            if (!parseValue(v))
                return false;
            out.object.emplace_back(std::move(name), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}'");
        }
    }

    std::string_view text_;
    std::string *err_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string *err)
{
    out = JsonValue{};
    return Parser(text, err).parse(out);
}

} // namespace dasdram
