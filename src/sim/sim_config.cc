#include "sim_config.hh"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>

#include "common/binfmt.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/replacement_policy.hh"

namespace dasdram
{

const char *
toString(SimEngine e)
{
    switch (e) {
      case SimEngine::Tick: return "tick";
      case SimEngine::Event: return "event";
    }
    return "?";
}

SimEngine
parseEngine(const std::string &name)
{
    if (name == "tick")
        return SimEngine::Tick;
    if (name == "event")
        return SimEngine::Event;
    fatal("unknown engine '{}' (expected tick or event)", name);
}

double
applySimScale(SimConfig &cfg)
{
    const char *env = std::getenv("DAS_SIM_SCALE");
    if (!env)
        return 1.0;
    char *end = nullptr;
    double factor = std::strtod(env, &end);
    if (end == env || factor <= 0.0) {
        warn("ignoring invalid DAS_SIM_SCALE='{}'", env);
        return 1.0;
    }
    cfg.instructionsPerCore = static_cast<InstCount>(
        static_cast<double>(cfg.instructionsPerCore) * factor);
    if (cfg.instructionsPerCore < 100'000)
        cfg.instructionsPerCore = 100'000;
    return factor;
}

namespace
{

template <typename E>
const char *
spellingOf(E value)
{
    for (const Spelling<E> &s : EnumSpellings<E>::table) {
        if (s.value == value)
            return s.name;
    }
    panic("enum value {} has no config spelling",
          static_cast<int>(value));
}

template <typename E>
E
parseSpelling(std::string_view path, const std::string &token)
{
    if constexpr (requires { EnumSpellings<E>::parse(token); }) {
        return EnumSpellings<E>::parse(token);
    } else {
        std::string names;
        for (const Spelling<E> &s : EnumSpellings<E>::table) {
            if (token == s.name)
                return s.value;
            names += (names.empty() ? "" : "|") + std::string(s.name);
        }
        fatal("config: '{}' must be one of {}, got '{}'", path, names,
              token);
    }
}

void
expectKind(std::string_view path, const JsonValue &j, JsonValue::Kind kind,
           const char *kind_name)
{
    if (j.kind != kind)
        fatal("config: '{}' must be {}", path, kind_name);
}

/**
 * The one typed setter behind configFromJson and setConfigField:
 * numbers must be finite, double fields must lie in their @p range,
 * and integer fields take only integral values the field can hold —
 * never a silent truncation or wrap.
 */
template <typename T>
void
assignField(std::string_view path, const JsonValue &j, T &out,
            FieldRange range)
{
    using Kind = JsonValue::Kind;
    if constexpr (std::is_same_v<T, std::string>) {
        expectKind(path, j, Kind::String, "a string");
        out = j.string;
    } else if constexpr (std::is_same_v<T, bool>) {
        expectKind(path, j, Kind::Bool, "a bool");
        out = j.boolean;
    } else if constexpr (std::is_enum_v<T>) {
        expectKind(path, j, Kind::String, "a string");
        out = parseSpelling<T>(path, j.string);
    } else {
        expectKind(path, j, Kind::Number, "a number");
        const double x = j.number;
        if (!std::isfinite(x))
            fatal("config: '{}' must be finite, got {}", path, x);
        if constexpr (std::is_floating_point_v<T>) {
            if (!(x >= range.lo &&
                  (x < range.hi || (range.closed && x == range.hi))))
                fatal("config: '{}' must be in [{}, {}{}, got {}", path,
                      range.lo, range.hi, range.closed ? ']' : ')', x);
            out = x;
        } else {
            static_assert(std::is_unsigned_v<T>);
            constexpr T max = std::numeric_limits<T>::max();
            // An integer literal is read exactly (a double rounds above
            // 2^53); any other number must be integral and below
            // 2^digits, the first value T cannot hold (exact in a
            // double, unlike max for 64 bits).
            const double limit =
                std::ldexp(1.0, std::numeric_limits<T>::digits);
            const bool fits = j.exactUint ? *j.exactUint <= max
                                          : x >= 0 && x == std::floor(x) &&
                                                x < limit;
            if (!fits) {
                fatal("config: '{}' must be an integer in [0, {}], got "
                      "{:.17}",
                      path, max, x);
            }
            out = j.exactUint ? static_cast<T>(*j.exactUint)
                              : static_cast<T>(x);
        }
    }
}

/** "section.key" → {"section", "key"}; a top-level "key" → {"", "key"}. */
std::pair<std::string_view, std::string_view>
splitPath(std::string_view path)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos)
        return {{}, path};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

/**
 * Writes each visited field under its path, opening and closing the
 * section objects as the table moves between them; with
 * semantic_only, FieldTag::Inert fields are skipped.
 */
class JsonOut
{
  public:
    explicit JsonOut(bool semantic_only) : semanticOnly_(semantic_only)
    {
        w_.beginObject();
    }

    template <typename T>
    void
    field(std::string_view path, T &v, FieldTag tag, FieldRange = {})
    {
        if (semanticOnly_ && tag != FieldTag::Semantic)
            return;
        const auto [section, key] = splitPath(path);
        if (section != section_) {
            if (!section_.empty())
                w_.endObject();
            if (!section.empty())
                w_.key(section).beginObject();
            section_ = section;
        }
        w_.key(key);
        if constexpr (std::is_enum_v<T>)
            w_.value(spellingOf(v));
        else
            w_.value(v);
    }

    std::string
    finish()
    {
        if (!section_.empty())
            w_.endObject();
        w_.endObject();
        return w_.str();
    }

  private:
    bool semanticOnly_;
    JsonWriter w_;
    std::string_view section_;
};

std::string
writeJson(const SimConfig &cfg, bool semantic_only)
{
    SimConfig c = cfg;
    JsonOut out(semantic_only);
    visitFields(c, out);
    return out.finish();
}

/** Collects every table path, in table order. */
struct PathLister
{
    std::string list;

    template <typename T>
    void
    field(std::string_view path, T &, FieldTag, FieldRange = {})
    {
        list += (list.empty() ? "" : ", ") + std::string(path);
    }
};

std::string
validPaths()
{
    PathLister lister;
    SimConfig c;
    visitFields(c, lister);
    return lister.list;
}

[[noreturn]] void
unknownKey(std::string_view path)
{
    fatal("config: unknown key '{}' (valid keys: {})", path, validPaths());
}

/** Reads every visited field present in a parsed JSON document. */
class JsonIn
{
  public:
    explicit JsonIn(const JsonValue &root) : root_(root) {}

    template <typename T>
    void
    field(std::string_view path, T &v, FieldTag, FieldRange range = {})
    {
        leaves_.emplace(path);
        const auto [section, key] = splitPath(path);
        const JsonValue *obj = &root_;
        if (!section.empty()) {
            sections_.emplace(section);
            obj = root_.find(section);
            if (!obj)
                return;
            if (!obj->isObject())
                fatal("config: '{}' must be an object", section);
        }
        if (const JsonValue *m = obj->find(key))
            assignField(path, *m, v, range);
    }

    /** Fatal on the first key that no table path names. */
    void
    rejectUnknown() const
    {
        for (const auto &[key, value] : root_.object) {
            if (!sections_.count(key)) {
                if (!leaves_.count(key))
                    unknownKey(key);
                continue;
            }
            for (const auto &[sub, unused] : value.object) {
                if (!leaves_.count(key + "." + sub))
                    unknownKey(key + "." + sub);
            }
        }
    }

  private:
    const JsonValue &root_;
    std::set<std::string, std::less<>> sections_;
    std::set<std::string, std::less<>> leaves_;
};

/** Assigns the text of one "path=value" to the field at path. */
struct FieldSetter
{
    std::string_view path, text;
    bool found = false;

    template <typename T>
    void
    field(std::string_view p, T &v, FieldTag, FieldRange range = {})
    {
        if (p != path)
            return;
        found = true;
        JsonValue j;
        // Text that is not JSON reaches the setter as a string, which
        // it rejects for a number or bool field by name.
        if (std::is_same_v<T, std::string> || std::is_enum_v<T> ||
            !parseJson(text, j)) {
            j = JsonValue{};
            j.kind = JsonValue::Kind::String;
            j.string = text;
        }
        assignField(path, j, v, range);
    }
};

} // namespace

std::string
configToJson(const SimConfig &cfg)
{
    return writeJson(cfg, false);
}

SimConfig
configFromJson(const std::string &text, SimConfig base)
{
    JsonValue root;
    std::string err;
    if (!parseJson(text, root, &err))
        fatal("config: malformed JSON: {}", err);
    if (!root.isObject())
        fatal("config: the document must be a JSON object");

    SimConfig cfg = std::move(base);
    JsonIn in(root);
    visitFields(cfg, in);
    in.rejectUnknown();
    return cfg;
}

void
setConfigField(SimConfig &cfg, const std::string &assignment)
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("config: malformed assignment '{}' (need path=value)",
              assignment);

    FieldSetter setter{std::string_view(assignment).substr(0, eq),
                       std::string_view(assignment).substr(eq + 1)};
    visitFields(cfg, setter);
    if (!setter.found)
        unknownKey(setter.path);
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    const std::string json = writeJson(cfg, true);
    std::uint64_t h = binfmt::fnv1a64(json.data(), json.size());
    // numCores is usually derived from the workload spec and not in
    // the table; systems built with explicit traces set it directly,
    // so chain it in.
    const std::uint64_t cores = cfg.numCores;
    return binfmt::fnv1a64(&cores, sizeof(cores), h);
}

} // namespace dasdram
