/**
 * @file
 * dasdram_latency — reads the request-span JSONL emitted by
 * --spans-out (schema dasdram-spans, see src/mem/request_trace.hh)
 * and explains where request latency went.
 *
 * Usage:
 *   dasdram_latency spans.jsonl
 *       Prints the run identity, then a per-group critical-path
 *       breakdown table (groups: read-hit / read-fast / read-slow by
 *       row class and row-buffer outcome, writes, table walks,
 *       forwarded reads) with the request count and the mean
 *       queue-wait, migration-block, refresh-shadow, row-activation
 *       and service components plus the total mean and p99, all in
 *       nanoseconds — followed by the top-k slowest requests with
 *       their full stage timelines.
 *
 *   --top N            how many slowest requests to detail (default 5)
 *   --baseline FILE    also load FILE (same schema) and append a
 *                      per-group diff table of this-vs-baseline mean
 *                      components — the DAS-vs-baseline latency
 *                      attribution comparison
 *
 * Every value-taking option also accepts the --flag=value spelling.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/schema_check.hh"
#include "mem/request_trace.hh"

using namespace dasdram;

namespace
{

/** Memory-controller cycle length in nanoseconds (DDR3-1600). */
constexpr double kMemCycleNs = 1.25;

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

/** One parsed span record (the fields this tool consumes). */
struct Span
{
    std::uint64_t id = 0;
    std::string kind;    ///< read / write / walk
    std::string rowClass; ///< fast / slow
    std::string outcome; ///< hit / miss / conflict / forwarded
    std::string trans;   ///< none / tc / llc / dram
    long core = 0;
    std::uint64_t addr = 0;
    unsigned channel = 0, rank = 0, bank = 0;
    std::uint64_t row = 0;
    std::uint64_t issueTick = 0, submitTick = 0;
    double admit = 0, ready = 0, firstCmd = 0, col = 0, data = 0;
    double pre = -1, act = -1;
    double waitQueue = 0, waitBlock = 0, waitRefresh = 0, fawStall = 0;
    double rowLat = 0, service = 0, total = 0;
};

/** A whole span-JSONL file: run identity plus every span record. */
struct SpanFile
{
    std::string path;
    int version = -1;
    std::string workload, design, label;
    double rate = 0.0;
    std::vector<Span> spans;
};

SpanFile
loadSpanFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '{}'", path);
    SpanFile file;
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
                path, kSpanJsonlSchema, strField(v, "schema"),
                static_cast<int>(numField(v, "version", -1.0)),
                kSpanJsonlVersion, "dasdram_latency");
            file.workload = strField(v, "workload");
            file.design = strField(v, "design");
            file.label = strField(v, "label");
            file.rate = numField(v, "rate");
        } else if (type == "span") {
            Span s;
            s.id = static_cast<std::uint64_t>(numField(v, "id"));
            s.kind = strField(v, "kind");
            s.rowClass = strField(v, "class");
            s.outcome = strField(v, "outcome");
            s.trans = strField(v, "trans");
            s.core = static_cast<long>(numField(v, "core"));
            s.addr = static_cast<std::uint64_t>(numField(v, "addr"));
            s.channel = static_cast<unsigned>(numField(v, "channel"));
            s.rank = static_cast<unsigned>(numField(v, "rank"));
            s.bank = static_cast<unsigned>(numField(v, "bank"));
            s.row = static_cast<std::uint64_t>(numField(v, "row"));
            s.issueTick =
                static_cast<std::uint64_t>(numField(v, "issueTick"));
            s.submitTick =
                static_cast<std::uint64_t>(numField(v, "submitTick"));
            s.admit = numField(v, "admit");
            s.ready = numField(v, "ready");
            s.firstCmd = numField(v, "firstCmd");
            s.pre = numField(v, "pre", -1.0);
            s.act = numField(v, "act", -1.0);
            s.col = numField(v, "col");
            s.data = numField(v, "data");
            s.waitQueue = numField(v, "waitQueue");
            s.waitBlock = numField(v, "waitBlock");
            s.waitRefresh = numField(v, "waitRefresh");
            s.fawStall = numField(v, "fawStall");
            s.rowLat = numField(v, "rowLat");
            s.service = numField(v, "service");
            s.total = numField(v, "total");
            file.spans.push_back(s);
        }
    }
    if (file.version < 0)
        fatal("{}: no meta record — is this a span-JSONL dump?", path);
    return file;
}

/** Breakdown group a span belongs to (aggregator taxonomy). */
std::string
groupOf(const Span &s)
{
    if (s.outcome == "forwarded")
        return "forwarded";
    if (s.kind == "walk")
        return "walk";
    if (s.kind == "write")
        return "write";
    if (s.outcome == "hit")
        return "read-hit";
    return s.rowClass == "fast" ? "read-fast" : "read-slow";
}

/** Display order of the breakdown groups. */
const char *const kGroups[] = {"read-hit", "read-fast", "read-slow",
                               "write",    "walk",      "forwarded"};

/** Accumulated component means of one group. */
struct GroupStats
{
    std::size_t count = 0;
    double queue = 0, block = 0, refresh = 0, faw = 0;
    double row = 0, service = 0, total = 0;
    std::vector<double> totals; ///< for the p99

    void
    add(const Span &s)
    {
        ++count;
        queue += s.waitQueue;
        block += s.waitBlock;
        refresh += s.waitRefresh;
        faw += s.fawStall;
        row += s.rowLat;
        service += s.service;
        total += s.total;
        totals.push_back(s.total);
    }

    double
    mean(double sum) const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    double
    p99()
    {
        if (totals.empty())
            return 0.0;
        std::sort(totals.begin(), totals.end());
        std::size_t idx = static_cast<std::size_t>(
            0.99 * static_cast<double>(totals.size() - 1) + 0.5);
        return totals[idx];
    }
};

std::map<std::string, GroupStats>
groupStats(const SpanFile &f)
{
    std::map<std::string, GroupStats> groups;
    for (const Span &s : f.spans)
        groups[groupOf(s)].add(s);
    return groups;
}

void
printBreakdownTable(std::map<std::string, GroupStats> &groups)
{
    std::printf("\nper-group critical-path breakdown (means in ns; "
                "queue excludes block/refresh):\n");
    std::printf("  %-10s %8s %8s %8s %8s %8s %8s %8s %9s %9s\n",
                "group", "count", "queue", "block", "refresh", "faw",
                "rowAct", "service", "total", "p99");
    for (const char *g : kGroups) {
        auto it = groups.find(g);
        if (it == groups.end())
            continue;
        GroupStats &gs = it->second;
        std::printf(
            "  %-10s %8zu %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f "
            "%9.1f\n",
            g, gs.count, gs.mean(gs.queue) * kMemCycleNs,
            gs.mean(gs.block) * kMemCycleNs,
            gs.mean(gs.refresh) * kMemCycleNs,
            gs.mean(gs.faw) * kMemCycleNs,
            gs.mean(gs.row) * kMemCycleNs,
            gs.mean(gs.service) * kMemCycleNs,
            gs.mean(gs.total) * kMemCycleNs, gs.p99() * kMemCycleNs);
    }
}

void
printTimeline(const Span &s, std::size_t ordinal)
{
    std::printf("#%zu  span %llu: %s core=%ld addr=0x%llx "
                "ch%u/rk%u/bk%u row %llu (%s, %s, trans=%s)\n",
                ordinal, static_cast<unsigned long long>(s.id),
                s.kind.c_str(), s.core,
                static_cast<unsigned long long>(s.addr), s.channel,
                s.rank, s.bank,
                static_cast<unsigned long long>(s.row),
                s.rowClass.c_str(), s.outcome.c_str(),
                s.trans.c_str());
    std::printf("     ticks: issue=%llu submit=%llu\n",
                static_cast<unsigned long long>(s.issueTick),
                static_cast<unsigned long long>(s.submitTick));
    std::printf("     mem cycles: admit=%.0f ready=%.0f firstCmd=%.0f",
                s.admit, s.ready, s.firstCmd);
    if (s.pre >= 0)
        std::printf(" pre=%.0f", s.pre);
    if (s.act >= 0)
        std::printf(" act=%.0f", s.act);
    std::printf(" col=%.0f data=%.0f\n", s.col, s.data);
    std::printf("     blame (ns): queue=%.1f block=%.1f refresh=%.1f "
                "faw=%.1f rowAct=%.1f service=%.1f total=%.1f\n",
                s.waitQueue * kMemCycleNs, s.waitBlock * kMemCycleNs,
                s.waitRefresh * kMemCycleNs, s.fawStall * kMemCycleNs,
                s.rowLat * kMemCycleNs, s.service * kMemCycleNs,
                s.total * kMemCycleNs);
}

void
printDiffTable(std::map<std::string, GroupStats> &cur,
               std::map<std::string, GroupStats> &base)
{
    std::printf("\nthis-vs-baseline mean deltas (ns; positive = this "
                "run is slower):\n");
    std::printf("  %-10s %8s %8s %8s %8s %8s %8s %9s\n", "group",
                "d.count", "d.queue", "d.block", "d.refr", "d.row",
                "d.serv", "d.total");
    for (const char *g : kGroups) {
        auto ci = cur.find(g);
        auto bi = base.find(g);
        if (ci == cur.end() && bi == base.end())
            continue;
        static GroupStats empty;
        GroupStats &c = ci != cur.end() ? ci->second : empty;
        GroupStats &b = bi != base.end() ? bi->second : empty;
        std::printf(
            "  %-10s %+8ld %+8.1f %+8.1f %+8.1f %+8.1f %+8.1f "
            "%+9.1f\n",
            g,
            static_cast<long>(c.count) - static_cast<long>(b.count),
            (c.mean(c.queue) - b.mean(b.queue)) * kMemCycleNs,
            (c.mean(c.block) - b.mean(b.block)) * kMemCycleNs,
            (c.mean(c.refresh) - b.mean(b.refresh)) * kMemCycleNs,
            (c.mean(c.row) - b.mean(b.row)) * kMemCycleNs,
            (c.mean(c.service) - b.mean(b.service)) * kMemCycleNs,
            (c.mean(c.total) - b.mean(b.total)) * kMemCycleNs);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("dasdram_latency",
                  "explain request latency from a span-JSONL dump "
                  "(see the header of tools/dasdram_latency.cc)");
    cli.optionDouble("--top", "N",
                     "how many slowest requests to detail (default 5)")
        .option("--baseline", "FILE",
                "span-JSONL to diff the breakdown against")
        .positionals("spans-jsonl", "span-JSONL dump to analyse", 0,
                     1);
    cli.parse(argc, argv);

    if (cli.positionalValues().empty())
        fatal("missing spans-jsonl argument (see --help)");

    SpanFile file = loadSpanFile(cli.positionalValues().front());
    std::printf("%s: schema v%d, workload=%s design=%s label=%s "
                "rate=%g, %zu spans\n",
                file.path.c_str(), file.version,
                file.workload.c_str(), file.design.c_str(),
                file.label.c_str(), file.rate, file.spans.size());
    if (file.spans.empty()) {
        std::printf("no spans recorded — nothing to attribute\n");
        return 0;
    }

    std::map<std::string, GroupStats> groups = groupStats(file);
    printBreakdownTable(groups);

    double top_d = cli.dbl("--top", 5.0);
    if (top_d < 0)
        fatal("--top must be >= 0 (got {})", top_d);
    std::size_t top = static_cast<std::size_t>(top_d);
    if (top > 0) {
        std::vector<const Span *> slowest;
        slowest.reserve(file.spans.size());
        for (const Span &s : file.spans)
            slowest.push_back(&s);
        std::sort(slowest.begin(), slowest.end(),
                  [](const Span *a, const Span *b) {
                      return a->total != b->total
                                 ? a->total > b->total
                                 : a->id < b->id;
                  });
        if (top > slowest.size())
            top = slowest.size();
        std::printf("\ntop %zu slowest requests:\n", top);
        for (std::size_t i = 0; i < top; ++i)
            printTimeline(*slowest[i], i + 1);
    }

    std::string baseline_path = cli.str("--baseline");
    if (!baseline_path.empty()) {
        SpanFile base = loadSpanFile(baseline_path);
        std::printf("\nbaseline %s: workload=%s design=%s label=%s, "
                    "%zu spans\n",
                    base.path.c_str(), base.workload.c_str(),
                    base.design.c_str(), base.label.c_str(),
                    base.spans.size());
        std::map<std::string, GroupStats> base_groups =
            groupStats(base);
        printDiffTable(groups, base_groups);
    }
    return 0;
}
