/**
 * @file
 * stepbench: the repository benchmark program.
 *
 *   stepbench --workload serve|cluster-faults|paper-sweep --seed N
 *             --seconds S --trace 0|1
 *
 * Prints a human-readable report (every end-to-end metric with its unit,
 * "n/a" where a metric has no meaning on the workload; with --trace 1
 * the per-layer metrics) and, as the last line, one JSON object:
 * {"correct", "attempted", "failed", "failures", "metrics": {name:
 * {"value", "unit"}}}. Exits 1 when any check failed or any operation
 * failed, 2 on a usage error. perfbench/run.py builds this program and
 * reduces its output to the metrics BENCHMARK.json names.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hh"
#include "obs/json.hh"

namespace perfbench {

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Fingerprint::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

double
addHostMetrics(Outcome& out, const std::vector<RoundCost>& rounds,
               double ops_per_round)
{
    std::vector<double> setup, wall, cpu;
    for (const RoundCost& r : rounds) {
        setup.push_back(r.setupS);
        wall.push_back(r.wallS);
        cpu.push_back(r.cpuS);
    }
    const double wall_med = median(wall);
    char note[128];
    std::snprintf(note, sizeof note,
                  "%zu timed round(s) after a warm-up; wall per round "
                  "min %.4f / median %.4f / max %.4f s",
                  wall.size(), quantile(wall, 0), wall_med,
                  quantile(wall, 1));
    out.notes.push_back(note);
    out.add("setup_s", median(setup), "s");
    out.add("wall_s", wall_med, "s");
    out.add("cpu_s", median(cpu), "s");
    out.add("ops_per_s", ops_per_round / wall_med, "1/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return ops_per_round / wall_med;
}

double
overheadFrac(const std::vector<RoundCost>& plain,
             const std::vector<RoundCost>& traced)
{
    std::vector<double> a, b;
    for (const RoundCost& r : plain)
        a.push_back(r.wallS);
    for (const RoundCost& r : traced)
        b.push_back(r.wallS);
    return median(b) / median(a) - 1.0;
}

} // namespace perfbench

namespace {

using namespace perfbench;

/** The end-to-end metrics every untraced report lists, in order. */
constexpr const char* kEndToEnd[] = {
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "ops_per_s",
    "sim_requests_per_s",
    "sim_mcycles",
    "sim_ttft_p50_kcycles",
    "sim_ttft_p99_kcycles",
    "sim_tpot_p50_kcycles",
    "sim_tpot_p99_kcycles",
    "sim_goodput_tok_per_kcycle",
    "sim_availability",
    "paper_checks_passed",
    "sim_ref_pearson",
};

int
usage(const char* why)
{
    std::cerr << "stepbench: " << why
              << "\nusage: stepbench --workload serve|cluster-faults|"
                 "paper-sweep --seed N --seconds S --trace 0|1\n";
    return 2;
}

void
printReport(const std::string& workload, const RunOptions& opt,
            const Outcome& out)
{
    std::printf("\n== stepbench %s (seed %llu, %.0f s, %s run) ==\n",
                workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced");
    auto row = [](const std::string& name, const Metric* m) {
        if (m)
            std::printf("  %-34s %18.6f  %s\n", name.c_str(), m->value,
                        m->unit.c_str());
        else
            std::printf("  %-34s %18s\n", name.c_str(), "n/a");
    };
    auto find = [&](const std::string& name) -> const Metric* {
        for (const Metric& m : out.metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    };
    if (!opt.trace) {
        for (const char* name : kEndToEnd)
            row(name, find(name));
    } else {
        for (const Metric& m : out.metrics)
            row(m.name, &m);
    }
    std::printf("  %-34s %18lld  count\n", "ops_attempted",
                static_cast<long long>(out.attempted));
    std::printf("  %-34s %18lld  count\n", "ops_failed",
                static_cast<long long>(out.failed));
    for (const std::string& n : out.notes)
        std::printf("  %s\n", n.c_str());
    for (const std::string& f : out.failures)
        std::printf("  FAIL: %s\n", f.c_str());
    std::printf("  result: %s\n",
                out.failures.empty() && out.failed == 0 ? "PASS" : "FAIL");
}

void
printJson(Outcome& out)
{
    for (const Metric& m : out.metrics)
        if (!std::isfinite(m.value))
            out.fail("metric " + m.name + " is not finite");
    const bool correct = out.failures.empty() && out.failed == 0;
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"failures\": [";
    for (size_t i = 0; i < out.failures.size(); ++i)
        s += (i ? ", \"" : "\"") + step::obs::jsonEscape(out.failures[i]) +
             "\"";
    s += "], \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += (i ? ", \"" : "\"") + step::obs::jsonEscape(m.name) +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             step::obs::jsonEscape(m.unit) + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    RunOptions opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 0);
            have_seed = *v != '\0' && *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            have_seconds = *v != '\0' && *end == '\0' && opt.seconds > 0;
        } else if (a == "--trace") {
            have_trace = std::strcmp(v, "0") == 0 ||
                         std::strcmp(v, "1") == 0;
            opt.trace = std::strcmp(v, "1") == 0;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Outcome out;
    try {
        if (workload == "serve")
            out = runServe(opt);
        else if (workload == "cluster-faults")
            out = runClusterFaults(opt);
        else if (workload == "paper-sweep")
            out = runPaperSweep(opt);
        else
            return usage(("unknown workload '" + workload + "'").c_str());
    } catch (const std::exception& e) {
        out.fail(std::string("uncaught: ") + e.what());
        out.failed = std::max<int64_t>(out.failed, 1);
    }
    if (out.attempted < 1)
        out.fail("no operation was attempted");
    printReport(workload, opt, out);
    printJson(out);
    return out.failures.empty() && out.failed == 0 ? 0 : 1;
}
