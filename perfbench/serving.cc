/**
 * @file
 * The serving workloads of the repository benchmark.
 *
 *  - serve: one ServingEngine under the queue-depth policy, a bursty
 *    single-turn trace of 2 400 requests at 1.2 arrivals/Mcycle (below
 *    saturation). DAM drain plus graph rebuild/rearm do nearly all the
 *    work and the decode batch size changes often.
 *  - cluster-faults: a 4-replica ServingCluster on 2 worker threads,
 *    1 200 Poisson requests at 0.8 arrivals/Mcycle per replica, one
 *    25 Mcycle crash per replica (sparse enough that failover holds
 *    availability), the resilience tier on with telemetry breakers, and
 *    streaming metrics enabled. Failover-wave re-simulation, the
 *    observation pass and the metrics registry do most of the work.
 *
 * The engine layer is observed from outside through ObservedPolicy, a
 * Policy decorator: the engine consults its policy exactly once per
 * batching iteration, so the decorator's call count is the iteration
 * count and its timestamps bound each iteration's host time. On serve
 * the traced run also records each decode iteration (batch size, KV
 * lengths read from the benchmark's own request vector, decode
 * bandwidth) and replays it through the public graph API —
 * Graph::recycle + buildDecoderLayer, rearmDecoderLayer and
 * Graph::run(Scheduler&) — to split the iteration time into build,
 * rearm and drain.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "obs/metrics.hh"
#include "runtime/cluster.hh"
#include "support/arena.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

namespace perfbench {
namespace {

using namespace step;
using namespace step::runtime;

// ---- engine observation -------------------------------------------------

/** One batching iteration as the policy decorator saw it. */
struct IterRecord
{
    Clock::time_point at; ///< when the engine consulted the policy
    int64_t batch = 0;    ///< decoding requests (0 = prefill-only)
    int64_t decodeBw = 0; ///< decode share of the compute bandwidth
    size_t kvBegin = 0;   ///< first of `batch` entries in IterLog::kvLens
};

/** Every iteration of one engine run, for timing and replay. */
struct IterLog
{
    const std::vector<Request>* reqs = nullptr;
    std::vector<IterRecord> iters;
    std::vector<int64_t> kvLens; ///< per-iteration KV lengths, flattened
    Clock::time_point end;       ///< when ServingEngine::run returned
    int64_t batchMismatches = 0; ///< iterations whose scan != activeDecodes
};

/**
 * Policy decorator. Counts split() calls (thread-safe, so it can sit
 * under a multi-threaded cluster) and, when a log is attached, records
 * each iteration. Logging reads the request vector the engine mutates in
 * place, so it is only valid for a single engine on the calling thread.
 */
class ObservedPolicy final : public Policy
{
  public:
    explicit ObservedPolicy(const Policy& inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    BwSplit
    split(const LoadSnapshot& load, int64_t total_bw) const override
    {
        const Clock::time_point at =
            log_ ? Clock::now() : Clock::time_point{};
        calls_.fetch_add(1, std::memory_order_relaxed);
        const BwSplit s = inner_.split(load, total_bw);
        if (log_) {
            IterRecord rec{at, load.activeDecodes, s.decodeBw,
                           log_->kvLens.size()};
            // The engine's decode batch is its running set in admission
            // order; without faults or shedding that is trace order.
            for (const Request& r : *log_->reqs)
                if (r.state == ReqState::Decoding)
                    log_->kvLens.push_back(r.contextLen());
            if (static_cast<int64_t>(log_->kvLens.size() - rec.kvBegin) !=
                rec.batch)
                ++log_->batchMismatches;
            log_->iters.push_back(rec);
        }
        return s;
    }

    void attachLog(IterLog* log) { log_ = log; }
    int64_t calls() const { return calls_.load(); }

  private:
    const Policy& inner_;
    mutable std::atomic<int64_t> calls_{0};
    IterLog* log_ = nullptr;
};

/** Host time of each iteration in @p log (seconds). */
std::vector<double>
iterationSeconds(const IterLog& log)
{
    std::vector<double> out;
    for (size_t i = 0; i < log.iters.size(); ++i) {
        const Clock::time_point next =
            i + 1 < log.iters.size() ? log.iters[i + 1].at : log.end;
        out.push_back(
            std::chrono::duration<double>(next - log.iters[i].at).count());
    }
    return out;
}

// ---- simulated outputs --------------------------------------------------

/** The simulated outputs of one serving round; must repeat exactly. */
struct ServingSim
{
    ServingSummary summary;
    dam::Cycle span = 0;
    double decodeBatchMean = 0;
    double computeUtil = 0;
    uint64_t outcomes = 0; ///< fingerprint of every request's outcome

    bool
    operator==(const ServingSim& o) const
    {
        const ServingSummary& a = summary;
        const ServingSummary& b = o.summary;
        return span == o.span && outcomes == o.outcomes &&
               decodeBatchMean == o.decodeBatchMean &&
               computeUtil == o.computeUtil && a.completed == b.completed &&
               a.failedRequests == b.failedRequests &&
               a.shedRequests == b.shedRequests &&
               a.migratedRequests == b.migratedRequests &&
               a.ttftP50 == b.ttftP50 && a.ttftP99 == b.ttftP99 &&
               a.tpotP50 == b.tpotP50 && a.tpotP99 == b.tpotP99 &&
               a.goodputTokensPerKcycle == b.goodputTokensPerKcycle &&
               a.availability == b.availability;
    }
};

ServingSim
simOutputs(const ServingSummary& s, const UtilizationTimeline& tl,
           int64_t total_bw, const std::vector<Request>& reqs)
{
    ServingSim sim;
    sim.summary = s;
    sim.span = tl.span();
    sim.decodeBatchMean = tl.meanDecodeBatch();
    sim.computeUtil = tl.computeUtilization(total_bw);
    Fingerprint fp;
    for (const Request& r : reqs) {
        fp.add(static_cast<uint64_t>(r.id));
        fp.add(static_cast<uint64_t>(r.state));
        fp.add(static_cast<uint64_t>(r.attempt));
        fp.add(static_cast<uint64_t>(r.generated));
        fp.add(static_cast<uint64_t>(r.firstTokenAt));
        fp.add(static_cast<uint64_t>(r.finishedAt));
    }
    sim.outcomes = fp.h;
    return sim;
}

void
addSimMetrics(Outcome& out, const ServingSim& sim)
{
    const ServingSummary& s = sim.summary;
    out.add("sim_mcycles", static_cast<double>(sim.span) / 1e6, "Mcycles");
    out.add("sim_ttft_p50_kcycles", s.ttftP50 / 1e3, "kcycles");
    out.add("sim_ttft_p99_kcycles", s.ttftP99 / 1e3, "kcycles");
    out.add("sim_tpot_p50_kcycles", s.tpotP50 / 1e3, "kcycles");
    out.add("sim_tpot_p99_kcycles", s.tpotP99 / 1e3, "kcycles");
    out.add("sim_goodput_tok_per_kcycle", s.goodputTokensPerKcycle,
            "tok/kcycle");
    out.add("sim_availability", s.availability, "fraction");
}

/**
 * Accounting closure: every request is terminal and every original
 * request ends exactly once as completed, failed or shed (retried and
 * migrated incarnations are transit, not outcomes). Returns the
 * operations that failed it.
 */
int64_t
checkAccounting(Outcome& out, const std::string& what,
                const std::vector<Request>& reqs, const ServingSummary& s)
{
    const auto n = static_cast<int64_t>(reqs.size());
    int64_t open = 0;
    for (const Request& r : reqs)
        open += r.terminal() ? 0 : 1;
    const int64_t closed =
        s.completed + s.failedRequests + s.shedRequests;
    if (open > 0)
        out.fail(what + ": " + std::to_string(open) +
                 " request(s) not terminal");
    if (closed != n)
        out.fail(what + ": accounting does not close: completed " +
                 std::to_string(s.completed) + " + failed " +
                 std::to_string(s.failedRequests) + " + shed " +
                 std::to_string(s.shedRequests) + " != " +
                 std::to_string(n));
    return std::max(open, std::abs(closed - n));
}

/**
 * Set-up of a serving round takes well under a millisecond, so each
 * round repeats it this many times and reports the median.
 */
constexpr int kSetupRepeats = 9;

/** Single-turn trace; bursty = 4x on/off modulation, 16 Mcycle period. */
TraceConfig
singleTurnTrace(int64_t requests, double arrivals_per_mcycle, bool bursty)
{
    TraceConfig tc;
    tc.numRequests = requests;
    tc.arrivalsPerKcycle = arrivals_per_mcycle / 1000.0;
    if (bursty) {
        tc.burstPeriod = 16'000'000;
        tc.burstDuty = 0.3;
        tc.burstFactor = 4.0;
    }
    return tc;
}

// ---- serve --------------------------------------------------------------

constexpr int64_t kServeRequests = 2400;
constexpr double kServeRate = 1.2; // arrivals per Mcycle

/** Host-time split of one replayed engine run. */
struct ReplayResult
{
    std::vector<double> buildUs, rearmUs, drainUs;
    uint64_t switches = 0;
    uint64_t events = 0; ///< channel tokens
    uint64_t allocs = 0; ///< probed allocations inside Graph::run
    std::vector<dam::Cycle> cycles; ///< per decode iteration
    int64_t splitDisagreements = 0; ///< key-equality vs batch-size reuse
};

double
sumUs(const std::vector<double>& us)
{
    double s = 0;
    for (double v : us)
        s += v;
    return s * 1e-6;
}

/**
 * Replay the decode iterations of @p log through the public graph API
 * exactly as the engine runs them: same DecoderParams, same expert
 * traces (the engine draws one per decode iteration from an Rng seeded
 * with its config seed), rearm while decoderStructKey matches, else
 * recycle + rebuild. With @p probe the allocation probe is armed around
 * each Graph::run.
 */
ReplayResult
replayDecodes(const IterLog& log, const EngineConfig& ec, bool probe)
{
    const ModelConfig& m = ec.model;
    DecoderParams dp;
    dp.cfg = m;
    dp.attnStrategy = ec.attnStrategy;
    dp.attnRegions = ec.attnRegions;
    dp.kvTileRows = ec.kvTileRows;
    dp.moeRegions = ec.moeRegions;
    dp.moeTile = ec.moeTile;
    dp.denseTile = ec.denseTile;
    dp.weightTileCols = ec.weightTileCols;
    dp.seed = ec.seed;
    const int64_t decode_units =
        2 + ec.attnRegions + (ec.moeRegions > 0 ? ec.moeRegions
                                                : m.numExperts);

    ReplayResult res;
    Rng iter_rng(ec.seed);
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles handles;
    dam::Scheduler sched;
    int64_t prev_batch = 0;
    for (const IterRecord& it : log.iters) {
        if (it.batch == 0)
            continue;
        IterationSpec spec;
        spec.kvLens.assign(log.kvLens.begin() + it.kvBegin,
                           log.kvLens.begin() + it.kvBegin + it.batch);
        spec.trace = generateExpertTrace(iter_rng, it.batch, m.numExperts,
                                         m.topK);
        dp.batch = it.batch;
        dp.computeBwPerMatmul =
            std::max<int64_t>(16, it.decodeBw / decode_units);
        dp.cfg.moeMatmulBw = dp.computeBwPerMatmul;

        const DecoderStructKey key = decoderStructKey(dp, it.batch);
        const bool rearm = handles.valid && handles.key == key;
        if (rearm != (it.batch == prev_batch))
            ++res.splitDisagreements;
        prev_batch = it.batch;

        Clock::time_point t0 = Clock::now();
        if (rearm) {
            rearmDecoderLayer(g, handles, dp, spec);
            res.rearmUs.push_back(secondsSince(t0) * 1e6);
        } else {
            g.recycle(iterationSimConfig(it.batch));
            buildDecoderLayer(g, dp, spec.trace, spec.kvLens, &handles);
            handles.key = key;
            handles.valid = true;
            res.buildUs.push_back(secondsSince(t0) * 1e6);
        }

        const uint64_t a0 = allocProbeCount();
        allocProbeArm(probe);
        t0 = Clock::now();
        const SimResult sim = g.run(sched);
        const double drain_us = secondsSince(t0) * 1e6;
        allocProbeArm(false);
        res.allocs += allocProbeCount() - a0;
        res.events += g.totalChannelTokens();
        res.drainUs.push_back(drain_us);
        res.switches += sim.contextSwitches;
        res.cycles.push_back(sim.cycles);
    }
    return res;
}

/**
 * Cross-check the decorator's records against the final request states:
 * every decode iteration generates one token per decoding request, and
 * a request that generated G tokens decoded G-1 times with context
 * lengths P+1 .. P+G-1 (P its prompt length).
 */
void
checkRecords(Outcome& out, const IterLog& log)
{
    int64_t batch_sum = 0, kv_sum = 0;
    for (const IterRecord& it : log.iters)
        batch_sum += it.batch;
    for (int64_t kv : log.kvLens)
        kv_sum += kv;
    int64_t want_batch = 0, want_kv = 0;
    for (const Request& r : *log.reqs) {
        const int64_t steps = r.generated - 1;
        want_batch += steps;
        want_kv += steps * r.promptLen + steps * (steps + 1) / 2;
    }
    if (log.batchMismatches != 0)
        out.fail("serve: " + std::to_string(log.batchMismatches) +
                 " iteration(s) where the decoding requests in the trace "
                 "differ from LoadSnapshot::activeDecodes");
    if (batch_sum != want_batch || kv_sum != want_kv)
        out.fail("serve: recorded decode batches/KV lengths do not match "
                 "the generated tokens");
}

} // namespace

Outcome
runServe(const RunOptions& opt)
{
    Outcome out;
    const TraceConfig tc =
        singleTurnTrace(kServeRequests, kServeRate, true);
    EngineConfig ec;
    ec.seed = streamSeed(opt.seed, 2);
    QueueDepthPolicy inner;
    ObservedPolicy policy(inner);

    std::vector<RoundCost> plain, traced;
    bool have_first = false;
    ServingSim first;
    IterLog last_log;
    std::vector<Request> last_reqs;
    std::vector<double> iter_s, rearm_iter_s, rebuild_iter_s;
    std::vector<double> engine_iter_total;
    std::vector<double> reuse_share;
    int64_t iterations = 0;

    repeatRounds(opt.seconds, opt.trace, [&](RoundKind kind) {
        const bool traced_round = kind == RoundKind::Traced;
        RoundCost cost;
        std::vector<Request> reqs;
        std::optional<ServingEngine> engine;
        std::vector<double> setup_s;
        for (int k = 0; k < kSetupRepeats; ++k) {
            const Clock::time_point t0 = Clock::now();
            reqs = generateTrace(tc, streamSeed(opt.seed, 1));
            engine.emplace(ec, policy);
            setup_s.push_back(secondsSince(t0));
        }
        cost.setupS = median(setup_s);
        IterLog log;
        log.reqs = &reqs;

        policy.attachLog(traced_round ? &log : nullptr);
        out.attempted += static_cast<int64_t>(reqs.size());
        const double c0 = cpuSeconds();
        const Clock::time_point t1 = Clock::now();
        EngineResult r;
        try {
            r = engine->run(reqs);
        } catch (const std::exception& e) {
            policy.attachLog(nullptr);
            out.fail(std::string("serve: engine run threw: ") + e.what());
            out.failed += static_cast<int64_t>(reqs.size());
            return false;
        }
        log.end = Clock::now();
        cost.wallS = secondsSince(t1);
        cost.cpuS = cpuSeconds() - c0;
        policy.attachLog(nullptr);
        if (kind != RoundKind::Warmup)
            (traced_round ? traced : plain).push_back(cost);

        out.failed += checkAccounting(out, "serve", reqs, r.summary);
        const ServingSim sim =
            simOutputs(r.summary, r.timeline, ec.totalComputeBw, reqs);
        if (!have_first) {
            first = sim;
            have_first = true;
        } else if (!(sim == first)) {
            out.fail("serve: simulated outputs differ between rounds of "
                     "the same inputs");
            out.failed += static_cast<int64_t>(reqs.size());
            return false;
        }
        iterations = r.iterations;

        if (traced_round) {
            if (static_cast<int64_t>(log.iters.size()) != r.iterations)
                out.fail("serve: policy consulted " +
                         std::to_string(log.iters.size()) +
                         " times for " + std::to_string(r.iterations) +
                         " iterations");
            checkRecords(out, log);
            const std::vector<double> secs = iterationSeconds(log);
            double rearm_s = 0, rebuild_s = 0, total = 0;
            int64_t decodes = 0, reused = 0, prev = 0;
            for (size_t i = 0; i < secs.size(); ++i) {
                iter_s.push_back(secs[i]);
                total += secs[i];
                const int64_t b = log.iters[i].batch;
                if (b == 0)
                    continue;
                ++decodes;
                if (b == prev) {
                    ++reused;
                    rearm_s += secs[i];
                } else {
                    rebuild_s += secs[i];
                }
                prev = b;
            }
            rearm_iter_s.push_back(rearm_s);
            rebuild_iter_s.push_back(rebuild_s);
            engine_iter_total.push_back(total);
            reuse_share.push_back(decodes ? static_cast<double>(reused) /
                                                static_cast<double>(decodes)
                                          : 0.0);
            last_reqs = std::move(reqs);
            last_log = std::move(log);
            last_log.reqs = &last_reqs;
        }
        return true;
    });
    if (!have_first)
        return out;

    if (!opt.trace) {
        out.add("sim_requests_per_s",
                addHostMetrics(out, plain,
                               static_cast<double>(kServeRequests)),
                "1/s");
        addSimMetrics(out, first);
        return out;
    }

    // Replay the last traced round: once to warm the arena, channel
    // rings and frame pool, once measured.
    const ReplayResult warm = replayDecodes(last_log, ec, false);
    const ReplayResult rep = replayDecodes(last_log, ec, true);
    if (rep.cycles != warm.cycles)
        out.fail("serve: replayed iteration cycles differ between passes");
    if (rep.splitDisagreements != 0)
        out.fail("serve: replay rearm/rebuild split (decoderStructKey "
                 "equality) disagrees with the batch-size inference on " +
                 std::to_string(rep.splitDisagreements) + " iteration(s)");
    // Every traced round did the same simulated work, so the median
    // round is the least drift-prone denominator for the replay's shares.
    const double engine_s = median(engine_iter_total);
    const double build_s = sumUs(rep.buildUs);
    const double rearm_s = sumUs(rep.rearmUs);
    const double drain_s = sumUs(rep.drainUs);
    const auto decode_iters = static_cast<double>(rep.drainUs.size());

    out.add("runtime.engine.iterations", static_cast<double>(iterations),
            "count");
    out.add("runtime.engine.iter_us_p50", quantile(iter_s, 0.5) * 1e6,
            "us");
    out.add("runtime.engine.iter_us_p99", quantile(iter_s, 0.99) * 1e6,
            "us");
    out.add("runtime.engine.rearm_iter_s", median(rearm_iter_s), "s");
    out.add("runtime.engine.rebuild_iter_s", median(rebuild_iter_s), "s");
    out.add("runtime.engine.decode_batch_reuse", reuse_share.back(),
            "fraction");
    out.add("runtime.engine.other_share",
            1.0 - (build_s + rearm_s + drain_s) / engine_s, "fraction");
    out.add("workloads.build_us_p50", median(rep.buildUs), "us");
    out.add("workloads.build_s", build_s, "s");
    out.add("workloads.rearm_us_p50", median(rep.rearmUs), "us");
    out.add("workloads.rearm_s", rearm_s, "s");
    out.add("workloads.build_share", build_s / engine_s, "fraction");
    out.add("workloads.rearm_share", rearm_s / engine_s, "fraction");
    out.add("dam.drain_us_p50", median(rep.drainUs), "us");
    out.add("dam.drain_s", drain_s, "s");
    out.add("dam.drain_share", drain_s / engine_s, "fraction");
    out.add("dam.switches_per_iter",
            static_cast<double>(rep.switches) / decode_iters, "count");
    out.add("dam.events_per_s", static_cast<double>(rep.events) / drain_s,
            "1/s");
    out.add("dam.allocs_per_event",
            static_cast<double>(rep.allocs) /
                static_cast<double>(rep.events),
            "count");
    out.add("sim.decode_batch_mean", first.decodeBatchMean, "count");
    out.add("sim.compute_util", first.computeUtil, "fraction");
    out.add("trace.overhead_frac", overheadFrac(plain, traced), "fraction");
    return out;
}

// ---- cluster-faults -----------------------------------------------------

namespace {

constexpr int64_t kClusterReplicas = 4;
constexpr int64_t kClusterThreads = 2;
constexpr int64_t kClusterRequests = 1200;
constexpr double kClusterRatePerReplica = 0.8; // arrivals per Mcycle
constexpr dam::Cycle kClusterMttr = 25'000'000;

/** One cluster scenario: a trace and the cluster configuration. */
struct ClusterScenario
{
    std::vector<Request> reqs;
    ClusterConfig cfg;
};

ClusterScenario
clusterScenario(uint64_t seed, int64_t threads, bool faults)
{
    ClusterScenario sc;
    const TraceConfig tc = singleTurnTrace(
        kClusterRequests,
        kClusterRatePerReplica * static_cast<double>(kClusterReplicas),
        false);
    sc.reqs = generateTrace(tc, streamSeed(seed, 4));

    ClusterConfig& cc = sc.cfg;
    cc.replicas = kClusterReplicas;
    cc.threads = threads;
    cc.routing = RouteKind::LeastQueued;
    cc.resilience.enabled = true;
    cc.resilience.breakerSource = BreakerSource::Telemetry;
    cc.resilience.remotePrefix.enabled = true;
    cc.metrics.enabled = true;
    if (!faults) {
        // Fault-free control: nothing to fail over, and plan breakers
        // (all closed) so no observation pass runs either.
        cc.resilience.breakerSource = BreakerSource::Plan;
        return sc;
    }

    // Crash plan: one crash per replica, in a seeded replica order, at
    // the middles of the four quarters of the arrival span, each down
    // for kClusterMttr. A fixed crash count at spread-out times keeps the
    // failover work comparable across seeds; a Poisson plan (mtbf 1e8
    // cycles) varied the crash count, and the re-simulation work with
    // it, by 2x from seed to seed.
    Rng rng(streamSeed(seed, 5));
    std::vector<int64_t> order(kClusterReplicas);
    for (int64_t r = 0; r < kClusterReplicas; ++r)
        order[r] = r;
    for (int64_t r = kClusterReplicas - 1; r > 0; --r)
        std::swap(order[r], order[rng.uniformRange(0, r)]);
    const double quarter = static_cast<double>(sc.reqs.back().arrival) /
                           static_cast<double>(kClusterReplicas);
    for (int64_t k = 0; k < kClusterReplicas; ++k) {
        const auto at = static_cast<dam::Cycle>(
            quarter * (static_cast<double>(k) + 0.5));
        cc.faults.crashes.push_back({order[k], at, at + kClusterMttr});
    }
    return sc;
}

struct ClusterRound
{
    ServingSim sim;
    int64_t simulated = 0; ///< policy-consulted iterations, all passes
    int64_t final = 0;     ///< ClusterResult::totalIterations
    int64_t retries = 0;
    int64_t migrations = 0;
    double exportS = 0;    ///< writeMetricsJson into memory
    size_t exportBytes = 0;
    RoundCost cost;
};

/** One round over a freshly generated scenario; throws on failure. */
ClusterRound
clusterRound(Outcome& out, uint64_t seed, const ObservedPolicy& policy,
             int64_t threads, bool faults, const std::string& what)
{
    ClusterRound res;
    ClusterScenario sc;
    std::optional<ServingCluster> cluster;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const Clock::time_point t0 = Clock::now();
        sc = clusterScenario(seed, threads, faults);
        cluster.emplace(sc.cfg, policy);
        setup_s.push_back(secondsSince(t0));
    }
    res.cost.setupS = median(setup_s);

    out.attempted += static_cast<int64_t>(sc.reqs.size());
    const int64_t calls0 = policy.calls();
    const double c0 = cpuSeconds();
    const Clock::time_point t1 = Clock::now();
    ClusterResult cr;
    try {
        cr = cluster->run(sc.reqs);
    } catch (const std::exception& e) {
        out.failed += static_cast<int64_t>(sc.reqs.size());
        throw std::runtime_error(what + ": cluster run threw: " + e.what());
    }
    const Clock::time_point t2 = Clock::now();
    std::ostringstream os;
    if (!step::obs::writeMetricsJson(os, cr.metricsViews(),
                                     cr.mergedMetrics.get()))
        out.fail(what + ": writeMetricsJson failed");
    res.exportS = secondsSince(t2);
    res.exportBytes = os.str().size();
    res.cost.wallS = secondsSince(t1);
    res.cost.cpuS = cpuSeconds() - c0;

    out.failed += checkAccounting(out, what, sc.reqs, cr.aggregate);
    res.sim = simOutputs(cr.aggregate, cr.timeline,
                         sc.cfg.engine.totalComputeBw * sc.cfg.replicas,
                         sc.reqs);
    res.simulated = policy.calls() - calls0;
    res.final = cr.totalIterations;
    res.retries = cr.retriesIssued;
    res.migrations = cr.migrationsIssued;
    return res;
}

} // namespace

Outcome
runClusterFaults(const RunOptions& opt)
{
    Outcome out;
    // Replica engines seed from the global seed (deriveSeed(replica)),
    // set before any worker thread exists.
    setGlobalSeed(streamSeed(opt.seed, 3));
    QueueDepthPolicy inner;
    ObservedPolicy policy(inner);

    std::vector<RoundCost> plain;
    std::vector<ClusterRound> rounds;
    try {
        // The cluster's layer metrics are per-round counts and spans
        // taken in every round, so a traced run needs no untraced twin.
        repeatRounds(opt.seconds, false, [&](RoundKind kind) {
            ClusterRound r = clusterRound(out, opt.seed, policy,
                                          kClusterThreads, true,
                                          "cluster-faults");
            if (kind != RoundKind::Warmup)
                plain.push_back(r.cost);
            if (!rounds.empty() && !(r.sim == rounds.front().sim)) {
                out.fail("cluster-faults: simulated outputs differ "
                         "between rounds of the same inputs");
                out.failed += kClusterRequests;
                return false;
            }
            rounds.push_back(std::move(r));
            return true;
        });
    } catch (const std::exception& e) {
        out.fail(e.what());
    }
    if (rounds.empty())
        return out;
    const ClusterRound& first = rounds.front();

    if (!opt.trace) {
        out.add("sim_requests_per_s",
                addHostMetrics(out, plain,
                               static_cast<double>(kClusterRequests)),
                "1/s");
        addSimMetrics(out, first.sim);
        return out;
    }

    try {
        // Determinism across thread counts: one worker must reproduce
        // the two-worker outputs bit for bit.
        const ClusterRound one = clusterRound(out, opt.seed, policy, 1,
                                              true, "cluster-faults@1");
        if (!(one.sim == first.sim) || one.simulated != first.simulated) {
            out.fail("cluster-faults: outputs at 1 worker thread differ "
                     "from 2 worker threads");
            out.failed += kClusterRequests;
        }
        // Calibration: without faults nothing is re-simulated, so every
        // iteration the decorator saw must be on the final timeline.
        const ClusterRound ctl = clusterRound(
            out, opt.seed, policy, kClusterThreads, false,
            "cluster-control");
        if (ctl.simulated != ctl.final)
            out.fail("cluster-control: fault-free resim ratio " +
                     std::to_string(static_cast<double>(ctl.final) /
                                    static_cast<double>(ctl.simulated)) +
                     " != 1");
    } catch (const std::exception& e) {
        out.fail(e.what());
    }

    std::vector<double> export_s; // timed rounds; rounds[0] warmed up
    for (size_t i = rounds.size() > 1 ? 1 : 0; i < rounds.size(); ++i)
        export_s.push_back(rounds[i].exportS);
    out.add("runtime.engine.iterations",
            static_cast<double>(first.simulated), "count");
    out.add("runtime.cluster.iterations_simulated",
            static_cast<double>(first.simulated), "count");
    out.add("runtime.cluster.iterations_final",
            static_cast<double>(first.final), "count");
    out.add("runtime.cluster.resim_ratio",
            static_cast<double>(first.final) /
                static_cast<double>(first.simulated),
            "fraction");
    out.add("runtime.cluster.retries", static_cast<double>(first.retries),
            "count");
    out.add("runtime.cluster.migrations",
            static_cast<double>(first.migrations), "count");
    out.add("obs.metrics_export_s", median(export_s), "s");
    out.add("obs.metrics_export_bytes",
            static_cast<double>(first.exportBytes), "bytes");
    out.add("sim.decode_batch_mean", first.sim.decodeBatchMean, "count");
    out.add("sim.compute_util", first.sim.computeUtil, "fraction");
    return out;
}

} // namespace perfbench
