/**
 * @file
 * Policy explorer: sweep the management knobs the paper studies —
 * promotion threshold, victim replacement policy, fast-level ratio and
 * migration group size — on one benchmark, printing a compact report.
 * A miniature of the Figure 8/9 sensitivity studies for interactive
 * use.
 *
 * Usage: policy_explorer [benchmark] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/sweep.hh"

using namespace dasdram;

namespace
{

void
report(const ExperimentResult &r)
{
    const RunMetrics &m = r.metrics;
    double slow_share =
        m.locations.total()
            ? 100.0 * static_cast<double>(m.locations.slowLevel) /
                  static_cast<double>(m.locations.total())
            : 0.0;
    std::printf("  %-22s %+7.2f%%   %8.2f   %6.2f%%\n", r.label.c_str(),
                100.0 * r.perfImprovement, m.ppkm(), slow_share);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "omnetpp";
    SimConfig cfg;
    cfg.instructionsPerCore =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 1'000'000;
    applySimScale(cfg);

    WorkloadSpec w = WorkloadSpec::single(bench);

    // One DAS point per knob setting; each override changes one knob
    // of the base configuration, and every point shares the one
    // standard-DRAM baseline.
    SweepRunner sweep(cfg);
    std::vector<std::pair<std::size_t, const char *>> sections;
    auto section = [&](const char *title) {
        sections.emplace_back(sweep.size(), title);
    };
    auto add = [&](std::string label, ConfigOverride knob) {
        sweep.add(w, DesignKind::Das, std::move(knob), std::move(label));
    };

    section("promotion threshold (Figure 8):");
    for (unsigned th : {1u, 2u, 4u, 8u}) {
        add("threshold " + std::to_string(th),
            [th](SimConfig &c) { c.das.promotion.threshold = th; });
    }
    section("victim replacement (Section 7.6):");
    for (FastReplPolicy p :
         {FastReplPolicy::Lru, FastReplPolicy::Random,
          FastReplPolicy::Sequential, FastReplPolicy::PseudoRandom}) {
        add(toString(p), [p](SimConfig &c) { c.das.replacement = p; });
    }
    section("fast-level ratio (Figure 9c/d):");
    for (unsigned denom : {32u, 16u, 8u, 4u}) {
        add("ratio 1/" + std::to_string(denom),
            [denom](SimConfig &c) { c.layout.fastRatioDenom = denom; });
    }
    section("migration group size (Figure 9b):");
    for (unsigned g : {8u, 16u, 32u, 64u}) {
        add(std::to_string(g) + "-row groups",
            [g](SimConfig &c) { c.layout.groupSize = g; });
    }
    std::vector<ExperimentResult> results = sweep.run();

    std::printf("Policy exploration on '%s'\n", bench.c_str());
    std::printf("  %-22s %-9s  %-8s  %s\n", "configuration", "speedup",
                "PPKM", "slow-share");
    std::size_t next_section = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (next_section < sections.size() &&
            sections[next_section].first == i)
            std::printf("%s\n", sections[next_section++].second);
        report(results[i]);
    }
    return 0;
}
