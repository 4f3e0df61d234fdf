/**
 * @file
 * dasdram_compare — diff two JSONL sweep-result files.
 *
 * The figure binaries and dasdram_run export one JSON object per
 * sweep point (--json FILE). This tool matches points between two
 * such files by (workload, design, label) and compares every numeric
 * field, recursively. Exit status 0 means equal (within --tolerance),
 * 1 means differences were found, 2 means usage or parse errors.
 *
 * Usage:
 *   dasdram_compare A.jsonl B.jsonl [--tolerance REL] [--quiet]
 *
 * With the default tolerance 0 this is an exact byte-level-equivalent
 * check on the numbers — what the determinism guarantee promises for
 * the same sweep at different --jobs values. A small tolerance (e.g.
 * --tolerance 1e-6) turns it into a regression gate for intentional
 * model changes; it applies symmetrically, so swapping A and B never
 * changes the verdict (see common/jsonl_diff.hh for the exact rule,
 * including NaN/infinity semantics).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/jsonl_diff.hh"

using namespace dasdram;

int
main(int argc, char **argv)
{
    CliParser cli("dasdram_compare",
                  "diff two JSONL sweep-result files (exit 0 equal, "
                  "1 differences, 2 usage/parse errors)");
    cli.optionDouble("--tolerance", "REL",
                     "symmetric relative tolerance (default 0 = exact)")
        .flag("--quiet", "no per-field output, just the exit status")
        .positionals("jsonl-file", "the two files to compare", 0, 2);

    // A usage error (including a malformed --tolerance number, which
    // the parser rejects) is exit status 2, not 1 — 1 means "compared
    // and found differences".
    std::string err;
    if (!cli.tryParse(argc, argv, err)) {
        std::fprintf(stderr, "dasdram_compare: %s\n%s", err.c_str(),
                     cli.usage().c_str());
        return 2;
    }
    if (cli.helpRequested()) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }

    if (cli.positionalValues().size() != 2) {
        std::fprintf(stderr,
                     "dasdram_compare: need exactly two jsonl-file "
                     "arguments\n%s",
                     cli.usage().c_str());
        return 2;
    }

    double tolerance = cli.dbl("--tolerance", 0.0);
    bool quiet = cli.given("--quiet");
    std::string file_a = cli.positionalValues()[0];
    std::string file_b = cli.positionalValues()[1];

    JsonlRecordMap a, b;
    if (!loadJsonlRecords(file_a, a, &err) ||
        !loadJsonlRecords(file_b, b, &err)) {
        std::fprintf(stderr, "dasdram_compare: %s\n", err.c_str());
        return 2;
    }

    auto report = [&](const std::string &path, const std::string &msg) {
        if (!quiet)
            std::printf("  %-40s %s\n", path.c_str(), msg.c_str());
    };

    std::size_t diffs = 0;
    std::size_t compared = 0;
    for (const auto &[key, av] : a) {
        auto it = b.find(key);
        if (it == b.end()) {
            if (!quiet)
                std::printf("only in %s: %s\n", file_a.c_str(),
                            key.c_str());
            ++diffs;
            continue;
        }
        ++compared;
        std::size_t d =
            diffJsonValues("", av, it->second, tolerance, report);
        if (d && !quiet)
            std::printf("^ point: %s (%zu field diffs)\n", key.c_str(),
                        d);
        diffs += d;
    }
    for (const auto &[key, bv] : b) {
        (void)bv;
        if (!a.count(key)) {
            if (!quiet)
                std::printf("only in %s: %s\n", file_b.c_str(),
                            key.c_str());
            ++diffs;
        }
    }

    if (!quiet) {
        std::printf("%zu point(s) compared, %zu difference(s)%s\n",
                    compared, diffs,
                    tolerance > 0.0 ? " (with tolerance)" : "");
    }
    return diffs == 0 ? 0 : 1;
}
