/**
 * @file
 * Shared plumbing of the repository benchmark (stepbench): run options,
 * the result record each workload hands back, host-cost clocks, the
 * round loop, and the allocation probe. The workloads themselves live
 * in serving.cc (serve, cluster-faults) and paper.cc (paper-sweep).
 *
 * Every workload runs *rounds*: one set-up (generate the inputs from the
 * seed, construct the system under test) followed by one pass over the
 * fixed inputs. Rounds repeat until the requested seconds have passed,
 * host costs are reported as medians over rounds, and every round's
 * simulated outputs must repeat the first round's bit for bit.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU time of the whole process (all threads), in seconds. */
double cpuSeconds();

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/** 64-bit stream seed derived from the run seed (splitmix64). */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** Order-sensitive 64-bit hash accumulator for output fingerprints. */
struct Fingerprint
{
    uint64_t h = 0xcbf29ce484222325ULL;
    void add(uint64_t v);
};

double median(std::vector<double> xs);
/** Quantile by linear interpolation between order statistics. */
double quantile(std::vector<double> xs, double q);

struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10;
    /** false: untraced run (end-to-end metrics); true: traced run
     *  (per-layer metrics). */
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports back to main(). */
struct Outcome
{
    int64_t attempted = 0; ///< operations: requests or layer graphs
    int64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed check
    std::vector<std::string> notes;    ///< extra report lines
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fail(std::string why) { failures.push_back(std::move(why)); }
};

/** Host cost of one timed round. */
struct RoundCost
{
    double setupS = 0;
    double wallS = 0;
    double cpuS = 0;
};

/** What a round is for: warming up, or a timed untraced/traced round. */
enum class RoundKind { Warmup, Plain, Traced };

/**
 * Run one warm-up round (it fills the allocator, frame pools and caches
 * and is checked but not timed), then timed rounds until @p seconds have
 * passed since the start, at least one of each kind. With @p alternate
 * the timed rounds alternate Plain/Traced, so a traced run measures both
 * under the same conditions; otherwise they are all Plain. @p round
 * returns false to stop early.
 */
template <class RoundFn>
void
repeatRounds(double seconds, bool alternate, RoundFn round)
{
    const Clock::time_point t0 = Clock::now();
    if (!round(RoundKind::Warmup))
        return;
    const int min_rounds = alternate ? 2 : 1;
    for (int i = 0; i < min_rounds || secondsSince(t0) < seconds; ++i)
        if (!round(alternate && i % 2 == 1 ? RoundKind::Traced
                                           : RoundKind::Plain))
            return;
}

/** Medians of the round costs, in the end-to-end metric names. */
double addHostMetrics(Outcome& out, const std::vector<RoundCost>& rounds,
                      double ops_per_round);

/** Median traced round wall time over the median untraced one, minus 1. */
double overheadFrac(const std::vector<RoundCost>& plain,
                    const std::vector<RoundCost>& traced);

Outcome runServe(const RunOptions& opt);
Outcome runClusterFaults(const RunOptions& opt);
Outcome runPaperSweep(const RunOptions& opt);

// ---- allocation probe (alloc_probe.cc) --------------------------------
// A counting global operator new: while armed on the calling thread,
// every allocation that thread makes is counted. Other threads are
// never counted, and the unarmed cost is one thread-local test.
void allocProbeArm(bool on);
uint64_t allocProbeCount();

} // namespace perfbench
