/**
 * @file
 * Streaming-metrics tier tests: the deterministic LogHistogram core
 * (exactness below the sub-bucket range, bounded relative error above
 * it, order-invariant and associative merges), the fixed-window
 * TimeSeries (alignment, non-monotone stamps, windowwise merge), the
 * MetricsRegistry fold and its counter views, the batch percentile
 * helper the summary path uses (one sort for all quantiles),
 * engine-sampled instrument and counter conservation against the
 * summary (fault-free and under faults), trace bytes that do not depend
 * on an attached registry, windowed SLO attainment, and the artifact
 * byte-identity contract across worker-thread counts and seeded
 * replays.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "obs/export.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "obs/timeseries.hh"
#include "runtime/cluster.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "support/stats.hh"

using namespace step;
using namespace step::obs;
using namespace step::runtime;

namespace {

/** Nearest-rank percentile over raw values — the reference the
 *  histogram's bucketed answer is judged against. */
uint64_t
nearestRank(std::vector<uint64_t> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    auto rank = uint64_t(std::ceil(p / 100.0 * double(xs.size())));
    rank = std::min(std::max<uint64_t>(rank, 1), uint64_t(xs.size()));
    return xs[size_t(rank - 1)];
}

} // namespace

TEST(Histogram, ExactBelowSubBucketRange)
{
    LogHistogram h;
    for (uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), size_t(v));
        EXPECT_EQ(LogHistogram::bucketLower(size_t(v)), v);
        EXPECT_EQ(LogHistogram::bucketUpper(size_t(v)), v + 1);
        EXPECT_EQ(LogHistogram::bucketRepresentative(size_t(v)), v);
        h.record(v);
    }
    // With one sample per exact bucket, every quantile is exact.
    EXPECT_EQ(h.percentile(50.0), nearestRank({[&] {
                  std::vector<uint64_t> xs;
                  for (uint64_t v = 0; v < 64; ++v)
                      xs.push_back(v);
                  return xs;
              }()},
                                              50.0));
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.count(), 64u);
}

TEST(Histogram, BucketBoundsPartitionTheValueLine)
{
    // Every bucket's [lower, upper) must map back to that bucket, and
    // consecutive buckets must tile without gaps — across several
    // powers of two.
    for (uint64_t v :
         {uint64_t{1},       uint64_t{63},      uint64_t{64},
          uint64_t{65},      uint64_t{127},     uint64_t{128},
          uint64_t{1000},    uint64_t{4095},    uint64_t{4096},
          uint64_t{1} << 20, (uint64_t{1} << 33) + 12345,
          uint64_t{1} << 52}) {
        const size_t idx = LogHistogram::bucketIndex(v);
        EXPECT_GE(v, LogHistogram::bucketLower(idx)) << v;
        EXPECT_LT(v, LogHistogram::bucketUpper(idx)) << v;
        EXPECT_EQ(LogHistogram::bucketUpper(idx),
                  LogHistogram::bucketLower(idx + 1))
            << v;
    }
}

TEST(Histogram, QuantileRelativeErrorBoundedAcrossMagnitudes)
{
    // Deterministic samples spanning 1e2..1e9: the bucketed nearest-rank
    // answer must stay within the sub-bucket resolution (width/lower <=
    // 1/32; midpoint representative halves that) of the exact one.
    Rng rng(0xfeedULL);
    std::vector<uint64_t> xs;
    for (int mag = 2; mag <= 9; ++mag) {
        uint64_t base = 1;
        for (int i = 0; i < mag; ++i)
            base *= 10;
        for (int k = 0; k < 200; ++k)
            xs.push_back(base + rng.uniformInt(base * 9));
    }
    LogHistogram h;
    for (uint64_t v : xs)
        h.record(v);
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                     99.9, 100.0}) {
        const uint64_t exact = nearestRank(xs, p);
        const uint64_t approx = h.percentile(p);
        const double rel =
            std::abs(double(approx) - double(exact)) / double(exact);
        EXPECT_LE(rel, 1.0 / 32.0) << "p" << p << ": " << approx
                                   << " vs exact " << exact;
    }
    // Extremes are exact (clamped to the recorded min/max).
    EXPECT_EQ(h.percentile(0.0), *std::min_element(xs.begin(), xs.end()));
    EXPECT_EQ(h.percentile(100.0),
              *std::max_element(xs.begin(), xs.end()));
}

TEST(Histogram, MergeIsAssociativeCommutativeAndOrderInvariant)
{
    Rng rng(7);
    std::vector<uint64_t> xs;
    for (int i = 0; i < 600; ++i)
        xs.push_back(rng.uniformInt(1u << 24) + 1);

    // Same multiset, three groupings and two insertion orders.
    LogHistogram whole;
    for (uint64_t v : xs)
        whole.record(v);
    LogHistogram rev;
    for (auto it = xs.rbegin(); it != xs.rend(); ++it)
        rev.record(*it);
    LogHistogram a, b, c;
    for (size_t i = 0; i < xs.size(); ++i)
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(xs[i]);

    LogHistogram ab = a;
    ab.merge(b);
    LogHistogram ab_c = ab;
    ab_c.merge(c);
    LogHistogram bc = b;
    bc.merge(c);
    LogHistogram a_bc = a;
    a_bc.merge(bc);
    LogHistogram cba = c;
    cba.merge(b);
    cba.merge(a);

    for (const LogHistogram* h : {&rev, &ab_c, &a_bc, &cba}) {
        EXPECT_EQ(h->count(), whole.count());
        EXPECT_EQ(h->sum(), whole.sum());
        EXPECT_EQ(h->min(), whole.min());
        EXPECT_EQ(h->max(), whole.max());
        for (double p : {50.0, 95.0, 99.0})
            EXPECT_EQ(h->percentile(p), whole.percentile(p));
    }
    // Dense counts agree bucket-for-bucket (trailing zeros aside).
    const auto& wb = whole.buckets();
    const auto& mb = ab_c.buckets();
    for (size_t i = 0; i < std::max(wb.size(), mb.size()); ++i)
        EXPECT_EQ(i < wb.size() ? wb[i] : 0, i < mb.size() ? mb[i] : 0);
}

TEST(Histogram, EmptyAndSingleSampleEdges)
{
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.percentile(50.0), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);

    h.record(123456);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(h.percentile(p), 123456u);
    EXPECT_EQ(h.min(), 123456u);
    EXPECT_EQ(h.max(), 123456u);
    EXPECT_EQ(h.sum(), 123456u);

    // Merging an empty histogram is a no-op in both directions.
    LogHistogram e;
    h.merge(e);
    EXPECT_EQ(h.count(), 1u);
    e.merge(h);
    EXPECT_EQ(e.count(), 1u);
    EXPECT_EQ(e.percentile(50.0), 123456u);
}

TEST(TimeSeries, WindowAlignmentIsFloorOfCycleOverWidth)
{
    TimeSeries ts(100, /*with_histograms=*/false);
    ts.record(0, 5);
    ts.record(99, 7);   // still window 0
    ts.record(100, 11); // first cycle of window 1
    ts.record(250, 13);
    EXPECT_EQ(ts.windowSlots(), size_t(3));
    EXPECT_EQ(ts.window(0).count, 2u);
    EXPECT_EQ(ts.window(0).sum, 12u);
    EXPECT_EQ(ts.window(0).min, 5u);
    EXPECT_EQ(ts.window(0).max, 7u);
    EXPECT_EQ(ts.window(1).count, 1u);
    EXPECT_EQ(ts.window(2).sum, 13u);
    // Past-the-end lookups answer the empty aggregate, not UB.
    EXPECT_EQ(ts.window(99).count, 0u);
    EXPECT_EQ(ts.total().count, 4u);
    EXPECT_EQ(ts.total().sum, 36u);
}

TEST(TimeSeries, NonMonotoneStampsAndEmptyWindowSkipping)
{
    TimeSeries ts(10, /*with_histograms=*/false);
    // Stamps arrive out of order and leave window 1 empty.
    ts.record(25, 1);
    ts.record(3, 2);
    ts.record(29, 3);
    std::vector<size_t> seen;
    ts.forEachWindow([&](size_t w, const WindowAgg& agg) {
        seen.push_back(w);
        EXPECT_GT(agg.count, 0u);
    });
    EXPECT_EQ(seen, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(ts.window(1).count, 0u);
}

TEST(TimeSeries, MergeIsWindowwiseAndChecksWidth)
{
    TimeSeries a(50, /*with_histograms=*/true);
    TimeSeries b(50, /*with_histograms=*/true);
    a.record(10, 100);
    a.record(120, 300);
    b.record(20, 200);
    b.record(320, 900);
    a.merge(b);
    EXPECT_EQ(a.window(0).count, 2u);
    EXPECT_EQ(a.window(0).min, 100u);
    EXPECT_EQ(a.window(0).max, 200u);
    EXPECT_EQ(a.window(2).count, 1u);
    EXPECT_EQ(a.window(6).sum, 900u);
    EXPECT_EQ(a.total().count, 4u);
    ASSERT_NE(a.windowHistogram(0), nullptr);
    EXPECT_EQ(a.windowHistogram(0)->count(), 2u);
    EXPECT_EQ(a.windowHistogram(1), nullptr); // empty window

    TimeSeries other(60, /*with_histograms=*/true);
    EXPECT_THROW(a.merge(other), FatalError);
    EXPECT_THROW(TimeSeries(0, false), FatalError);
}

TEST(TimeSeries, WindowHistogramsOnlyForHistogramInstruments)
{
    TimeSeries plain(100, /*with_histograms=*/false);
    plain.record(5, 42);
    EXPECT_EQ(plain.windowHistogram(0), nullptr);

    TimeSeries hist(100, /*with_histograms=*/true);
    hist.record(5, 42);
    ASSERT_NE(hist.windowHistogram(0), nullptr);
    EXPECT_EQ(hist.windowHistogram(0)->percentile(50.0), 42u);
}

TEST(Metrics, RegistryFoldsByNameAndRejectsKindFlips)
{
    MetricsRegistry a{MetricsConfig{true, 100}};
    MetricsRegistry b{MetricsConfig{true, 100}};
    const auto ha = a.histogram("ttft");
    const auto sa = a.series("depth");
    // Registration is idempotent by name.
    EXPECT_EQ(ha, a.histogram("ttft"));
    EXPECT_EQ(sa, a.series("depth"));
    EXPECT_NE(ha, sa);
    a.record(ha, 10, 500);
    a.record(sa, 10, 3);
    a.record(sa, 20, 2);

    // Counter views: a gauge reads the last sample, monotonic counters
    // the sample count or sum; the snapshot keeps view order.
    const CounterView views[] = {{"depth", sa, CounterStat::Last},
                                 {"depth_samples", sa, CounterStat::Count},
                                 {"depth_total", sa, CounterStat::Sum}};
    const std::vector<CounterSample> snap = snapshotCounters(a, views);
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "depth");
    EXPECT_EQ(snap[0].value, 2);
    EXPECT_FALSE(snap[0].monotonic);
    EXPECT_EQ(snap[1].name, "depth_samples");
    EXPECT_EQ(snap[1].value, 2);
    EXPECT_TRUE(snap[1].monotonic);
    EXPECT_EQ(snap[2].name, "depth_total");
    EXPECT_EQ(snap[2].value, 5);
    EXPECT_TRUE(snap[2].monotonic);

    const auto hb = b.histogram("ttft");
    b.record(hb, 150, 700);
    b.series("extra");
    b.record(b.series("depth"), 30, 1);

    a.mergeFrom(b);
    ASSERT_NE(a.find("ttft"), nullptr);
    EXPECT_EQ(a.find("ttft")->total.count(), 2u);
    EXPECT_EQ(a.find("ttft")->series.window(0).count, 1u);
    EXPECT_EQ(a.find("ttft")->series.window(1).count, 1u);
    ASSERT_NE(a.find("extra"), nullptr); // appended in b's order
    EXPECT_EQ(a.size(), size_t(3));
    // The merged gauge takes the max, like the summary counter merge.
    EXPECT_EQ(counterValue(a, views[0]), 2);
    EXPECT_EQ(counterValue(a, views[1]), 3);

    EXPECT_THROW(a.histogram("depth"), FatalError);
    EXPECT_THROW(a.series("ttft"), FatalError);
}

TEST(Metrics, PercentilesBatchMatchesPerQuantileCalls)
{
    // Regression for the one-sort batch helper the summary path now
    // uses: identical results to the repeated-sort per-quantile calls,
    // on unsorted input with duplicates.
    Rng rng(99);
    std::vector<double> xs;
    for (int i = 0; i < 501; ++i)
        xs.push_back(double(rng.uniformInt(10'000)));
    const std::vector<double> ps = {0.0,  10.0, 50.0, 90.0,
                                    95.0, 99.0, 100.0};
    const std::vector<double> batch = percentiles(xs, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (size_t i = 0; i < ps.size(); ++i)
        EXPECT_DOUBLE_EQ(batch[i], percentile(xs, ps[i])) << ps[i];
    EXPECT_TRUE(percentiles({}, ps).empty() ||
                percentiles({}, ps) == std::vector<double>(ps.size(), 0.0));
}

TEST(Metrics, ParseCliVariantsAndErrors)
{
    {
        const char* argv[] = {"sim", "--metrics", "out.json",
                              "--metrics-window", "500000"};
        MetricsCli cli = parseMetricsCli(5, const_cast<char**>(argv));
        EXPECT_TRUE(cli.enabled());
        EXPECT_EQ(cli.path, "out.json");
        EXPECT_EQ(cli.config().windowCycles, dam::Cycle(500000));
    }
    {
        const char* argv[] = {"sim", "--metrics=m.json"};
        MetricsCli cli = parseMetricsCli(2, const_cast<char**>(argv));
        EXPECT_TRUE(cli.enabled());
        EXPECT_EQ(cli.path, "m.json");
        // Default window survives when the flag is absent.
        EXPECT_EQ(cli.config().windowCycles, MetricsConfig{}.windowCycles);
    }
    {
        const char* argv[] = {"sim", "--metrics-window", "100"};
        MetricsCli cli = parseMetricsCli(3, const_cast<char**>(argv));
        EXPECT_TRUE(cli.error); // window without a path
    }
    {
        const char* argv[] = {"sim", "--metrics", "m.json",
                              "--metrics-window", "0"};
        MetricsCli cli = parseMetricsCli(5, const_cast<char**>(argv));
        EXPECT_TRUE(cli.error);
    }
    EXPECT_EQ(metricsJsonlPath("out.json"), "out.windows.jsonl");
    EXPECT_EQ(metricsJsonlPath("out"), "out.windows.jsonl");
}

namespace {

TraceConfig
meteredTrace(int64_t n)
{
    TraceConfig tc;
    tc.numRequests = n;
    tc.arrivalsPerKcycle = 0.0045;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    return tc;
}

/**
 * One engine through every fault and resilience path the counters
 * cover: deadlines tight enough that every finisher misses and a shed
 * policy drops the sure losers, a mid-run crash that fails the
 * requests in flight, and a later deep slowdown whose drain migrates
 * queued and prefilling work away. Arrivals continue past both, so
 * the trace samples the fault counters after they move. @p reg and
 * @p sink may each be null.
 */
EngineResult
runFaultyResilient(MetricsRegistry* reg, TraceSink* sink,
                   std::vector<Request>* out_reqs = nullptr)
{
    TraceConfig tc = meteredTrace(60);
    tc.arrivalsPerKcycle = 0.0012;
    tc.deadlineCycles = 800'000;
    QueueDepthPolicy policy;
    DeadlineAwareShedPolicy shed;
    EngineConfig ec;
    ec.seed = 5;
    ec.admission = &shed;
    ec.faults.downs.push_back({25'000'000, 27'000'000});
    ec.faults.slowdowns.push_back({35'000'000, 43'000'000, 0.5});
    ec.drain.enabled = true;
    ServingEngine eng(ec, policy);
    eng.attachMetrics(reg);
    eng.attachTrace(sink);
    auto reqs = generateTrace(tc, 17);
    EngineResult r = eng.run(reqs);
    if (out_reqs)
        *out_reqs = std::move(reqs);
    return r;
}

} // namespace

TEST(Metrics, EngineInstrumentsConserveAgainstSummary)
{
    TraceConfig tc = meteredTrace(60);
    auto reqs = generateTrace(tc, 17);
    QueueDepthPolicy policy;
    EngineConfig ec;
    ec.seed = 5;

    // Metrics-off reference: sampling must never change the simulation.
    auto ref_reqs = reqs;
    ServingEngine ref(ec, policy);
    EngineResult ref_r = ref.run(ref_reqs);

    MetricsRegistry reg{MetricsConfig{true, 2'000'000}};
    ServingEngine eng(ec, policy);
    eng.attachMetrics(&reg);
    EngineResult r = eng.run(reqs);

    EXPECT_EQ(r.summary.completed, ref_r.summary.completed);
    EXPECT_EQ(r.summary.makespan, ref_r.summary.makespan);
    EXPECT_EQ(r.summary.ttftSamples, ref_r.summary.ttftSamples);
    EXPECT_EQ(r.summary.tpotSamples, ref_r.summary.tpotSamples);
    EXPECT_EQ(r.iterations, ref_r.iterations);
    // The only fields a metrics run adds are the windowed-SLO ones.
    EXPECT_EQ(ref_r.summary.sloWindows, 0);
    EXPECT_GT(r.summary.sloWindows, 0);
    EXPECT_LE(r.summary.sloWindowsAttained, r.summary.sloWindows);

    const auto* finished = reg.find("requests_finished");
    ASSERT_NE(finished, nullptr);
    EXPECT_EQ(int64_t(finished->series.total().count),
              r.summary.completed);
    const auto* ttft = reg.find("ttft_cycles");
    ASSERT_NE(ttft, nullptr);
    EXPECT_TRUE(ttft->isHistogram);
    EXPECT_EQ(ttft->series.total().count,
              uint64_t(r.summary.ttftSamples.size()));
    // Histogram bucket counts conserve the sample count.
    uint64_t bucket_sum = 0;
    for (uint64_t c : ttft->total.buckets())
        bucket_sum += c;
    EXPECT_EQ(bucket_sum, ttft->total.count());
    const auto* iters = reg.find("iter_cycles");
    ASSERT_NE(iters, nullptr);
    EXPECT_EQ(int64_t(iters->series.total().count), r.iterations);
    const auto* gen = reg.find("generated_tokens");
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(int64_t(gen->series.total().sum),
              r.summary.generatedTokens);

    // Second input: the faulty, resilient run, traced and metered. The
    // summary's counters (views of the registry) must balance the
    // fault and resilience fields of the summary.
    TraceOptions opts;
    opts.level = TraceLevel::Request;
    TraceSink sink(opts);
    MetricsRegistry freg{MetricsConfig{true, 2'000'000}};
    std::vector<Request> freqs;
    const EngineResult fr = runFaultyResilient(&freg, &sink, &freqs);
    const ServingSummary& s = fr.summary;
    // The run exercises every path below.
    EXPECT_GT(s.completed, 0);
    EXPECT_GT(s.failedRequests, 0);
    EXPECT_GT(s.shedRequests, 0);
    EXPECT_GT(s.migratedRequests, 0);
    EXPECT_GT(s.deadlineMisses, 0);

    auto counter = [&](std::string_view name) -> const CounterSample* {
        for (const CounterSample& c : s.counters)
            if (c.name == name)
                return &c;
        ADD_FAILURE() << "missing counter " << name;
        return nullptr;
    };
    auto value = [&](std::string_view name) {
        const CounterSample* c = counter(name);
        return c ? c->value : -1;
    };
    EXPECT_EQ(value("requests_failed"), s.failedRequests);
    EXPECT_EQ(value("requests_shed"), s.shedRequests);
    EXPECT_EQ(value("requests_migrated"), s.migratedRequests);
    EXPECT_EQ(value("deadline_misses"), s.deadlineMisses);
    EXPECT_EQ(value("iterations"), fr.iterations);
    EXPECT_EQ(value("replica_faults"), 1);
    // The counter counts every emitted token; the summary counts only
    // the tokens of finished requests. The crash's casualties had
    // emitted some, so both sides of the ledger are nonzero here.
    int64_t lost_tokens = 0;
    for (const Request& q : freqs)
        if (q.state != ReqState::Finished)
            lost_tokens += q.generated;
    EXPECT_GT(lost_tokens, 0);
    EXPECT_EQ(value("generated_tokens"), s.generatedTokens + lost_tokens);

    // Monotonic counters never step backwards on the trace track, and
    // each track ends at the summary's final value.
    std::map<std::string, int64_t> last;
    sink.forEachEvent([&](const TraceEvent& e) {
        if (e.kind != EventKind::Counter)
            return;
        const std::string& name = sink.name(e.name);
        const CounterSample* c = counter(name);
        auto [it, fresh] = last.try_emplace(name, e.arg0);
        if (c && c->monotonic && !fresh) {
            EXPECT_GE(e.arg0, it->second) << name << " at " << e.ts;
        }
        it->second = e.arg0;
    });
    EXPECT_EQ(last.size(), s.counters.size());
    for (const CounterSample& c : s.counters)
        EXPECT_EQ(last[c.name], c.value) << c.name;
}

TEST(Metrics, AttachingARegistryNeverChangesTraceBytes)
{
    // The counter track reads the caller's registry when one is
    // attached and a run-local one otherwise; the bytes must not tell.
    auto chrome = [](MetricsRegistry* reg) {
        TraceOptions opts;
        opts.level = TraceLevel::Request;
        TraceSink sink(opts);
        runFaultyResilient(reg, &sink);
        std::ostringstream os;
        writeChromeTrace(os, {&sink});
        return os.str();
    };
    MetricsRegistry reg{MetricsConfig{true, 2'000'000}};
    const std::string with_registry = chrome(&reg);
    const std::string trace_only = chrome(nullptr);
    EXPECT_NE(with_registry.find("\"requests_failed\""), std::string::npos);
    EXPECT_EQ(with_registry, trace_only);
}

TEST(Metrics, SloWindowAttainmentFromSyntheticRegistry)
{
    MetricsRegistry reg{MetricsConfig{true, 1000}};
    const auto ttft = reg.histogram("ttft_cycles");
    const auto tpot = reg.histogram("tpot_cycles");
    const auto miss = reg.series("deadline_misses");
    SloConfig slo;
    slo.ttftCycles = 500;
    slo.tpotCycles = 100;

    // Window 0: healthy. Window 1: TTFT blows the target. Window 2:
    // latency fine but a deadline miss lands. Window 4: healthy again
    // (window 3 stays empty and must not count).
    reg.record(ttft, 100, 400);
    reg.record(tpot, 150, 50);
    reg.record(ttft, 1100, 9000);
    reg.record(tpot, 1150, 50);
    reg.record(ttft, 2100, 300);
    reg.record(miss, 2200, 1);
    reg.record(ttft, 4500, 200);

    const SloWindowStats s = computeSloWindows(reg, slo);
    EXPECT_EQ(s.windows, 4);  // empty window 3 is not monitored
    EXPECT_EQ(s.attained, 2); // windows 0 and 4
    EXPECT_GE(s.worstP95Ttft, uint64_t(slo.ttftCycles));

    ServingSummary sum;
    applySloWindows(sum, reg, slo);
    EXPECT_EQ(sum.sloWindows, 4);
    EXPECT_EQ(sum.sloWindowsAttained, 2);
    EXPECT_EQ(sum.sloWorstWindowP95Ttft, s.worstP95Ttft);
}

TEST(Metrics, ClusterArtifactByteIdenticalAcrossThreadsAndReplays)
{
    TraceConfig tc = meteredTrace(90);
    auto base = generateTrace(tc, 23);
    QueueDepthPolicy policy;

    auto artifact = [&](int64_t threads) {
        auto reqs = base;
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.metrics = MetricsConfig{true, 4'000'000};
        ServingCluster cluster(cc, policy);
        ClusterResult r = cluster.run(reqs);
        std::ostringstream json, jsonl;
        EXPECT_TRUE(writeMetricsJson(json, r.metricsViews(),
                                     r.mergedMetrics.get()));
        EXPECT_TRUE(writeMetricsWindowsJsonl(jsonl, r.metricsViews(),
                                             r.mergedMetrics.get()));
        return std::pair<std::string, std::string>(json.str(),
                                                   jsonl.str());
    };

    const auto serial = artifact(1);
    const auto two = artifact(2);
    const auto four = artifact(4);
    const auto replay = artifact(1);
    EXPECT_EQ(serial.first, two.first);
    EXPECT_EQ(serial.first, four.first);
    EXPECT_EQ(serial.first, replay.first); // seeded replay
    EXPECT_EQ(serial.second, two.second);
    EXPECT_EQ(serial.second, four.second);
    EXPECT_EQ(serial.second, replay.second);
    EXPECT_NE(serial.first.find("\"schema_version\": 2"),
              std::string::npos);
}

TEST(Metrics, ClusterMergedRegistryEqualsIndexOrderFold)
{
    TraceConfig tc = meteredTrace(50);
    auto reqs = generateTrace(tc, 29);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 3;
    cc.metrics = MetricsConfig{true, 4'000'000};
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);
    ASSERT_EQ(r.metrics.size(), size_t(3));
    ASSERT_NE(r.mergedMetrics, nullptr);

    // Re-fold by hand in index order; the exporter must produce the
    // same bytes from the run's own merge and from a null merge (which
    // folds internally).
    std::ostringstream with_merge, self_fold;
    EXPECT_TRUE(writeMetricsJson(with_merge, r.metricsViews(),
                                 r.mergedMetrics.get()));
    EXPECT_TRUE(writeMetricsJson(self_fold, r.metricsViews(), nullptr));
    EXPECT_EQ(with_merge.str(), self_fold.str());

    // Aggregate SLO windows come from the merged registry.
    const SloWindowStats s =
        computeSloWindows(*r.mergedMetrics, cc.engine.slo);
    EXPECT_EQ(r.aggregate.sloWindows, s.windows);
    EXPECT_EQ(r.aggregate.sloWindowsAttained, s.attained);
    // Merged instrument totals equal the sum of the replicas'.
    const auto* merged_fin = r.mergedMetrics->find("requests_finished");
    ASSERT_NE(merged_fin, nullptr);
    uint64_t sum = 0;
    for (const auto& m : r.metrics) {
        const auto* f = m->find("requests_finished");
        ASSERT_NE(f, nullptr);
        sum += f->series.total().count;
    }
    EXPECT_EQ(merged_fin->series.total().count, sum);
    EXPECT_EQ(int64_t(sum), r.aggregate.completed);
}
