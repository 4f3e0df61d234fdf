/**
 * @file
 * Minimal JSON support for structured result export and ingestion.
 *
 * JsonWriter emits compact, single-line JSON with deterministic number
 * formatting (the same value always serialises to the same bytes, on
 * every platform), which is what makes sweep output byte-comparable
 * across runs and thread counts. JsonValue/parseJson is the matching
 * reader used by the comparison tooling; it supports the full JSON
 * grammar this repo emits (objects, arrays, strings, numbers, bools,
 * null) and nothing exotic (no \u surrogate pairs beyond the BMP).
 * As an input extension it also accepts bare NaN / Infinity /
 * -Infinity number literals, which other tools' JSONL emitters
 * sometimes produce for non-finite stats (our writer emits null).
 */

#ifndef DASDRAM_COMMON_JSON_HH
#define DASDRAM_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dasdram
{

/** Builder for compact JSON text. Misuse (e.g. a key outside an
 *  object) is a programming error and panics. */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object key; must be followed by a value or container. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /** The document so far (valid once all containers are closed). */
    const std::string &str() const { return out_; }

    /** Escape @p s as a JSON string literal (with quotes). */
    static std::string quoted(std::string_view s);

  private:
    void separate();

    std::string out_;
    /** One entry per open container: true while it is still empty. */
    std::vector<bool> emptyStack_;
    bool afterKey_ = false;
};

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /**
     * The exact value of a number literal written as a plain
     * non-negative integer that fits in 64 bits (`number` rounds it
     * above 2^53); empty for every other number.
     */
    std::optional<std::uint64_t> exactUint;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys keep the last value. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view name) const;
};

/**
 * Parse @p text as one JSON document. Returns false (and sets @p err
 * when non-null) on malformed input; trailing whitespace is allowed,
 * trailing garbage is not.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *err = nullptr);

} // namespace dasdram

#endif // DASDRAM_COMMON_JSON_HH
