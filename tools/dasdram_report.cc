/**
 * @file
 * dasdram_report — renders stats-JSONL dumps (see
 * src/common/stats_jsonl.hh) into a human-readable comparison table,
 * and validates Chrome trace_event JSON files.
 *
 * Usage:
 *   dasdram_report stats_a.jsonl [stats_b.jsonl ...]
 *       One table row per file (design × workload), with the read
 *       count, the read-latency percentiles p50/p90/p99/p99.9 and the
 *       mean from the cross-channel rollup histogram, the fast/slow
 *       row-class p99 split, and the p99 delta of every later file
 *       against the first one — so
 *           dasdram_report sas.jsonl das.jsonl
 *       is the SAS-vs-DAS latency-percentile comparison. Latencies in
 *       the rollup are memory-controller cycles (1.25 ns each); the
 *       table converts to nanoseconds.
 *
 *   --metric NAME      add one column per occurrence: the named
 *                      record's p99 (histogram), mean (distribution)
 *                      or value (counter/formula), in raw units.
 *                      Run --list to see the available names.
 *   --list             print every record of every file (name, type,
 *                      headline value) instead of the table
 *   --check-trace FILE parse FILE as Chrome trace_event JSON and
 *                      verify it has a non-empty traceEvents array;
 *                      prints the event count, exits non-zero when the
 *                      file is malformed (used by the observability
 *                      smoke tests)
 *
 * Every value-taking option also accepts the --flag=value spelling.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/schema_check.hh"
#include "common/stats_jsonl.hh"

using namespace dasdram;

namespace
{

/** Memory-controller cycle length in nanoseconds (DDR3-1600). */
constexpr double kMemCycleNs = 1.25;

/** One parsed stats-JSONL file: records keyed by "type|name". */
struct StatsFile
{
    std::string path;
    int version = -1;                        ///< meta schema version
    JsonValue meta;                          ///< the meta record
    std::map<std::string, JsonValue> records; ///< all typed records
};

double
numField(const JsonValue &v, const char *key, double fallback = 0.0)
{
    const JsonValue *f = v.find(key);
    return f && f->isNumber() ? f->number : fallback;
}

std::string
strField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->isString() ? f->string : std::string();
}

StatsFile
loadStatsFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '{}'", path);
    StatsFile file;
    file.path = path;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        std::string err;
        if (!parseJson(line, v, &err))
            fatal("{}:{}: malformed JSON: {}", path, lineno, err);
        std::string type = strField(v, "type");
        if (type == "meta") {
            file.version = checkJsonlSchema(
                path, kStatsJsonlSchema, strField(v, "schema"),
                static_cast<int>(numField(v, "version", -1.0)),
                kStatsJsonlVersion, "dasdram_report");
            file.meta = std::move(v);
        } else if (type == "epoch") {
            // Epochs are a per-run time-series, not a comparison
            // metric; the table ignores them.
        } else if (!type.empty()) {
            file.records.emplace(type + "|" + strField(v, "name"),
                                 std::move(v));
        }
    }
    if (file.meta.kind == JsonValue::Kind::Null)
        fatal("{}: no meta record — is this a stats-JSONL dump?", path);
    return file;
}

/** The record named @p name of any type, or nullptr. */
const JsonValue *
findRecord(const StatsFile &f, const std::string &name)
{
    for (const char *type : {"hist", "dist", "counter", "formula"}) {
        auto it = f.records.find(std::string(type) + "|" + name);
        if (it != f.records.end())
            return &it->second;
    }
    return nullptr;
}

std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** The headline scalar of a record: hist p99, dist mean, else value. */
double
headline(const JsonValue &rec)
{
    std::string type = strField(rec, "type");
    if (type == "hist")
        return numField(rec, "p99");
    if (type == "dist")
        return numField(rec, "mean");
    return numField(rec, "value");
}

void
listRecords(const StatsFile &f)
{
    std::printf("%s  (schema v%d workload=%s design=%s label=%s)\n",
                f.path.c_str(), f.version,
                strField(f.meta, "workload").c_str(),
                strField(f.meta, "design").c_str(),
                strField(f.meta, "label").c_str());
    for (const auto &[key, rec] : f.records) {
        std::printf("  %-8s %-48s %.4g\n",
                    strField(rec, "type").c_str(),
                    strField(rec, "name").c_str(), headline(rec));
    }
}

int
checkTrace(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
        return 1;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    JsonValue v;
    std::string err;
    if (!parseJson(ss.str(), v, &err)) {
        std::fprintf(stderr, "error: %s: malformed JSON: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    const JsonValue *events = v.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "error: %s: no traceEvents array\n", path.c_str());
        return 1;
    }
    if (events->array.empty()) {
        std::fprintf(stderr, "error: %s: traceEvents is empty\n",
                     path.c_str());
        return 1;
    }
    // Every event needs at least a phase and a name.
    for (const JsonValue &e : events->array) {
        if (!e.isObject() || !e.find("ph") || !e.find("name")) {
            std::fprintf(stderr,
                         "error: %s: event without ph/name\n",
                         path.c_str());
            return 1;
        }
    }
    std::printf("%s: valid Chrome trace, %zu events\n", path.c_str(),
                events->array.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("dasdram_report",
                  "render stats-JSONL dumps as a comparison table "
                  "(see the header of tools/dasdram_report.cc)");
    cli.option("--metric", "NAME",
               "add one column per occurrence: the named record's "
               "headline value (see --list)")
        .option("--check-trace", "FILE",
                "validate FILE as Chrome trace_event JSON instead")
        .flag("--list",
              "print every record of every file instead of the table")
        .positionals("stats-jsonl", "stats-JSONL dumps to tabulate", 0);
    cli.parse(argc, argv);


    const std::vector<std::string> &paths = cli.positionalValues();
    const std::vector<std::string> &metrics = cli.strs("--metric");
    std::string check_path = cli.str("--check-trace");
    bool list_only = cli.given("--list");

    if (!check_path.empty())
        return checkTrace(check_path);
    if (paths.empty())
        fatal("no stats-JSONL files given (try --help)");

    std::vector<StatsFile> files;
    for (const std::string &p : paths)
        files.push_back(loadStatsFile(p));

    // Comparing dumps with different record shapes silently produces
    // nonsense deltas; refuse mixed schema versions up front.
    for (const StatsFile &f : files) {
        std::printf("%s: stats-JSONL schema version %d\n",
                    f.path.c_str(), f.version);
        if (f.version != files.front().version) {
            fatal("stats-JSONL version mismatch: '{}' is version {} "
                  "but '{}' is version {}; re-run the older dump with "
                  "a matching build before diffing",
                  files.front().path, files.front().version, f.path,
                  f.version);
        }
    }

    if (list_only) {
        for (const StatsFile &f : files)
            listRecords(f);
        return 0;
    }

    // Comparison table: one row per file, percentiles in ns.
    std::vector<std::string> header = {"workload", "design",  "label",
                                       "reads",    "p50(ns)", "p90(ns)",
                                       "p99(ns)",  "p99.9(ns)",
                                       "mean(ns)", "fast p99",
                                       "slow p99", "d(p99)"};
    for (const std::string &m : metrics)
        header.push_back(m);

    std::vector<std::vector<std::string>> rows;
    double first_p99 = 0.0;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const StatsFile &f = files[fi];
        const JsonValue *all = findRecord(f, "rollup.readLatency");
        if (!all) {
            fatal("{}: no rollup.readLatency histogram (old dump?)",
                  f.path);
        }
        const JsonValue *fast = findRecord(f, "rollup.readLatencyFast");
        const JsonValue *slow = findRecord(f, "rollup.readLatencySlow");
        double p99 = numField(*all, "p99") * kMemCycleNs;
        if (fi == 0)
            first_p99 = p99;
        std::vector<std::string> row = {
            strField(f.meta, "workload"),
            strField(f.meta, "design"),
            strField(f.meta, "label"),
            fmt(numField(*all, "count"), 0),
            fmt(numField(*all, "p50") * kMemCycleNs, 1),
            fmt(numField(*all, "p90") * kMemCycleNs, 1),
            fmt(p99, 1),
            fmt(numField(*all, "p999") * kMemCycleNs, 1),
            fmt(numField(*all, "mean") * kMemCycleNs, 1),
            fast && numField(*fast, "count") > 0
                ? fmt(numField(*fast, "p99") * kMemCycleNs, 1)
                : "-",
            slow && numField(*slow, "count") > 0
                ? fmt(numField(*slow, "p99") * kMemCycleNs, 1)
                : "-",
            fi == 0 ? std::string("-")
                    : (p99 >= first_p99 ? "+" : "") +
                          fmt(p99 - first_p99, 1),
        };
        for (const std::string &m : metrics) {
            const JsonValue *rec = findRecord(f, m);
            row.push_back(rec ? fmt(headline(*rec), 2) : "-");
        }
        rows.push_back(std::move(row));
    }

    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &r : rows)
        for (std::size_t c = 0; c < r.size(); ++c)
            width[c] = std::max(width[c], r[c].size());
    auto print_row = [&](const std::vector<std::string> &r) {
        for (std::size_t c = 0; c < r.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(width[c]),
                        r[c].c_str());
        std::printf("\n");
    };
    print_row(header);
    for (const auto &r : rows)
        print_row(r);
    return 0;
}
