/**
 * @file
 * Fault-tier tests: deterministic plan generation and parsing, the
 * engine's crash/recovery/slowdown semantics (no request lost, KV and
 * cache accounting intact on every abort path), retry/backoff and
 * deadline-aware shedding policies, cluster failover with availability
 * accounting, summary merging of the fault counters (NaN-free with
 * zero-fault and fully-failed replicas), thread-count invariance of
 * faulty runs, the structured StallError diagnostic that replaced the
 * engine's fatal idle assert, the co-simulation's one-run-per-replica
 * oracle, and late injection into a running engine.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "helpers.hh"
#include "obs/metrics.hh"
#include "runtime/cluster.hh"
#include "support/error.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::runtime;

namespace {

Request
mkReq(int64_t id, dam::Cycle arrival, int64_t prompt, int64_t output)
{
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptLen = prompt;
    r.outputLen = output;
    return r;
}

TraceConfig
burstyTrace(int64_t n)
{
    TraceConfig tc;
    tc.numRequests = n;
    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    return tc;
}

/** Every request reached exactly one terminal state; none was lost. */
void
expectAllAccounted(const std::vector<Request>& reqs,
                   const ServingSummary& s)
{
    int64_t finished = 0, failed = 0, shed = 0;
    for (const Request& r : reqs) {
        EXPECT_TRUE(r.terminal()) << "request " << r.id << " not terminal";
        switch (r.state) {
          case ReqState::Finished:
            ++finished;
            break;
          case ReqState::Failed:
            ++failed;
            break;
          case ReqState::Shed:
            ++shed;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(finished + failed + shed,
              static_cast<int64_t>(reqs.size()));
    EXPECT_EQ(s.completed, finished);
    // Note: cluster summaries reclassify retried failures, so only the
    // completed count is compared against raw request states here.
}

} // namespace

// ---- plan generation & parsing ----------------------------------------

TEST(FaultPlan, GenerationIsDeterministicAndBounded)
{
    FaultPlanConfig fc;
    fc.mtbfCycles = 10'000'000;
    fc.mttrCycles = 2'000'000;
    fc.slowdownMtbfCycles = 8'000'000;
    fc.horizonCycles = 60'000'000;

    FaultPlan a = generateFaultPlan(fc, 4, 99);
    FaultPlan b = generateFaultPlan(fc, 4, 99);
    FaultPlan c = generateFaultPlan(fc, 4, 100);

    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    for (size_t i = 0; i < a.crashes.size(); ++i) {
        EXPECT_EQ(a.crashes[i].replica, b.crashes[i].replica);
        EXPECT_EQ(a.crashes[i].failAt, b.crashes[i].failAt);
        EXPECT_EQ(a.crashes[i].recoverAt, b.crashes[i].recoverAt);
        EXPECT_LT(a.crashes[i].failAt, fc.horizonCycles);
    }
    ASSERT_EQ(a.slowdowns.size(), b.slowdowns.size());
    EXPECT_FALSE(a.empty());
    // A different seed draws a different plan.
    bool differs = a.crashes.size() != c.crashes.size();
    for (size_t i = 0; !differs && i < a.crashes.size(); ++i)
        differs = a.crashes[i].failAt != c.crashes[i].failAt;
    EXPECT_TRUE(differs);
    // Zero horizon = no plan at all.
    EXPECT_TRUE(generateFaultPlan(fc, 4, 99).empty() ==
                (fc.horizonCycles == 0));
    fc.horizonCycles = 0;
    EXPECT_TRUE(generateFaultPlan(fc, 4, 99).empty());
}

TEST(FaultPlan, ParseSpecAndRejectMalformed)
{
    FaultPlan p;
    std::string err;
    ASSERT_TRUE(
        parseFaultPlan("1@8000000:12000000, 2@5000000", &p, &err));
    ASSERT_EQ(p.crashes.size(), 2u);
    EXPECT_EQ(p.crashes[0].replica, 1);
    EXPECT_EQ(p.crashes[0].failAt, 8'000'000u);
    EXPECT_EQ(p.crashes[0].recoverAt, 12'000'000u);
    EXPECT_EQ(p.crashes[1].replica, 2);
    EXPECT_EQ(p.crashes[1].recoverAt, 0u);
    EXPECT_FALSE(p.aliveAt(1, 9'000'000));
    EXPECT_TRUE(p.aliveAt(1, 12'000'000)); // half-open window
    EXPECT_TRUE(p.aliveAt(0, 9'000'000));

    for (const char* bad :
         {"nonsense", "1@", "@5", "1@10:5", "-2@100", "1@x:y"}) {
        FaultPlan q;
        EXPECT_FALSE(parseFaultPlan(bad, &q, &err)) << bad;
        EXPECT_FALSE(err.empty());
    }
}

TEST(FaultPlan, TimelineWindowsAndEdges)
{
    FaultPlan p;
    p.crashes.push_back({0, 100, 200});
    p.crashes.push_back({0, 500, 0});
    p.slowdowns.push_back({0, 300, 400, 0.5});
    ReplicaFaultTimeline t = p.forReplica(0);
    EXPECT_FALSE(t.downAt(99));
    EXPECT_TRUE(t.downAt(100));
    EXPECT_TRUE(t.downAt(199));
    EXPECT_FALSE(t.downAt(200));
    EXPECT_TRUE(t.downAt(500));
    EXPECT_TRUE(t.downAt(1'000'000'000)); // permanent
    EXPECT_DOUBLE_EQ(t.bwFactorAt(299), 1.0);
    EXPECT_DOUBLE_EQ(t.bwFactorAt(300), 0.5);
    EXPECT_DOUBLE_EQ(t.bwFactorAt(400), 1.0);
    EXPECT_EQ(t.nextEventAfter(0), 100u);
    EXPECT_EQ(t.nextEventAfter(100), 200u);
    EXPECT_EQ(t.nextEventAfter(250), 300u);
    EXPECT_EQ(t.nextEventAfter(500), ReplicaFaultTimeline::kNoEvent);
    // Another replica's events are invisible.
    EXPECT_TRUE(p.forReplica(1).empty());
}

TEST(FaultPlan, MttrZeroMakesEveryCrashPermanentAndTruncates)
{
    // MTTR 0 means crashes never repair: generation must emit at most
    // one crash per replica (everything after a permanent crash is
    // unreachable) and each must carry recoverAt == 0.
    FaultPlanConfig fc;
    fc.mtbfCycles = 10'000'000;
    fc.mttrCycles = 0;
    fc.horizonCycles = 200'000'000;
    FaultPlan p = generateFaultPlan(fc, 4, 7);
    ASSERT_FALSE(p.crashes.empty());
    int64_t per_replica[4] = {0, 0, 0, 0};
    for (const FaultEvent& e : p.crashes) {
        EXPECT_EQ(e.recoverAt, 0u);
        ASSERT_GE(e.replica, 0);
        ASSERT_LT(e.replica, 4);
        ++per_replica[e.replica];
    }
    for (int64_t n : per_replica)
        EXPECT_LE(n, 1);
    // The permanent timeline normalizes and stays down forever.
    ReplicaFaultTimeline t = p.forReplica(p.crashes[0].replica);
    EXPECT_TRUE(t.downAt(p.crashes[0].failAt));
    EXPECT_TRUE(t.downAt(ReplicaFaultTimeline::kNoEvent - 1));
}

TEST(FaultPlan, HorizonShorterThanFirstFailureYieldsEmptyPlan)
{
    // Draws are >= 1 cycle, so a 1-cycle horizon precedes every
    // possible failure — the plan must come back empty for any seed.
    FaultPlanConfig fc;
    fc.mtbfCycles = 5'000'000;
    fc.mttrCycles = 1'000'000;
    fc.slowdownMtbfCycles = 4'000'000;
    fc.horizonCycles = 1;
    for (uint64_t seed : {1u, 42u, 999u})
        EXPECT_TRUE(generateFaultPlan(fc, 8, seed).empty()) << seed;
}

TEST(FaultPlan, NormalizeRejectsOverlapsAndMalformedWindows)
{
    // Overlapping crash windows.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 300});
        t.downs.push_back({200, 400});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // A permanent crash followed by a later event.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 0});
        t.downs.push_back({200, 300});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Recovery not after its crash.
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 100});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Overlapping slowdown windows.
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 300, 0.5});
        t.slowdowns.push_back({200, 400, 0.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Empty slowdown window and out-of-range factor.
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 100, 0.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    {
        ReplicaFaultTimeline t;
        t.slowdowns.push_back({100, 200, 1.5});
        EXPECT_THROW(t.normalize(), FatalError);
    }
    // Back-to-back (touching) windows are legal: [100,200) + [200,300).
    {
        ReplicaFaultTimeline t;
        t.downs.push_back({100, 200});
        t.downs.push_back({200, 300});
        t.slowdowns.push_back({300, 400, 0.5});
        t.slowdowns.push_back({400, 500, 0.5});
        EXPECT_NO_THROW(t.normalize());
    }
}

TEST(FaultPlan, NextEventAfterAlwaysAdvancesToNoEvent)
{
    // Walking nextEventAfter from 0 must strictly increase and reach
    // kNoEvent within the timeline's edge count — the loop-termination
    // property the engine's delivery loop depends on.
    auto walk = [](ReplicaFaultTimeline t, size_t max_edges) {
        t.normalize();
        dam::Cycle c = 0;
        size_t steps = 0;
        while (true) {
            const dam::Cycle n = t.nextEventAfter(c);
            if (n == ReplicaFaultTimeline::kNoEvent)
                break;
            EXPECT_GT(n, c) << "nextEventAfter did not advance";
            c = n;
            ++steps;
            if (steps > max_edges) {
                ADD_FAILURE() << "nextEventAfter loops";
                break;
            }
        }
        return steps;
    };
    ReplicaFaultTimeline mixed;
    mixed.downs.push_back({100, 200});
    mixed.downs.push_back({500, 700});
    mixed.slowdowns.push_back({300, 400, 0.5});
    EXPECT_EQ(walk(mixed, 6), 6u); // every edge visited exactly once
    ReplicaFaultTimeline permanent;
    permanent.downs.push_back({100, 0});
    EXPECT_EQ(walk(permanent, 1), 1u); // failAt only; no recovery edge
    EXPECT_EQ(walk({}, 0), 0u);        // empty timeline: no events
    // Probing at or past the last edge returns kNoEvent immediately.
    mixed.normalize();
    EXPECT_EQ(mixed.nextEventAfter(700), ReplicaFaultTimeline::kNoEvent);
    EXPECT_EQ(mixed.nextEventAfter(ReplicaFaultTimeline::kNoEvent - 1),
              ReplicaFaultTimeline::kNoEvent);
}

// ---- retry policy ------------------------------------------------------

TEST(Retry, ExponentialBackoffBoundsAttemptsAndRespectsDeadline)
{
    ExponentialBackoffRetry rp;
    rp.maxRetries = 2;
    rp.backoffBaseCycles = 1000;
    rp.backoffMult = 2.0;
    Request r = mkReq(0, 0, 10, 5);

    auto a1 = rp.reschedule(r, 1, 5000);
    auto a2 = rp.reschedule(r, 2, 5000);
    ASSERT_TRUE(a1.has_value());
    ASSERT_TRUE(a2.has_value());
    EXPECT_EQ(*a1, 6000u);
    EXPECT_EQ(*a2, 7000u); // backoff doubles
    EXPECT_FALSE(rp.reschedule(r, 3, 5000).has_value()); // > maxRetries

    r.deadlineAt = 5500; // re-arrival 6000 would already be too late
    EXPECT_FALSE(rp.reschedule(r, 1, 5000).has_value());
    r.deadlineAt = 6000;
    EXPECT_TRUE(rp.reschedule(r, 1, 5000).has_value());

    EXPECT_FALSE(NoRetryPolicy{}.reschedule(r, 1, 0).has_value());
}

// ---- engine fault semantics -------------------------------------------

TEST(EngineFaults, EmptyPlanMatchesFaultFreeRun)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto run_with = [&](ReplicaFaultTimeline faults) {
        auto reqs = generateTrace(tc, 5);
        EngineConfig ec;
        ec.faults = std::move(faults);
        ServingEngine engine(ec, policy);
        return engine.run(reqs);
    };
    EngineResult base = run_with({});
    // A timeline whose only event lies far beyond the makespan must not
    // perturb a single cycle of the run.
    ReplicaFaultTimeline far;
    far.slowdowns.push_back({base.summary.makespan * 10,
                             base.summary.makespan * 11, 0.5});
    EngineResult same = run_with(far);
    EXPECT_EQ(base.iterations, same.iterations);
    EXPECT_EQ(base.summary.makespan, same.summary.makespan);
    EXPECT_EQ(base.summary.completed, same.summary.completed);
    EXPECT_EQ(base.summary.ttftP99, same.summary.ttftP99);
    EXPECT_EQ(base.summary.failedRequests, 0);
    EXPECT_DOUBLE_EQ(base.summary.availability, 1.0);
}

TEST(EngineFaults, PermanentCrashFailsEverythingAfterIt)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    ec.faults.downs.push_back({makespan / 2, 0});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    expectAllAccounted(reqs, r.summary);
    EXPECT_GT(r.summary.failedRequests, 0);
    EXPECT_GT(r.summary.completed, 0);
    EXPECT_LT(r.summary.availability, 1.0);
    EXPECT_GT(r.summary.availability, 0.0);
    for (const Request& q : reqs) {
        if (q.state != ReqState::Failed)
            continue;
        // Nothing finishes after the crash, and failures are stamped at
        // the crash (in-flight) or at their own arrival (refused).
        EXPECT_GE(q.finishedAt, makespan / 2);
    }
}

TEST(EngineFaults, RecoveryServesArrivalsAfterRepair)
{
    TraceConfig tc = burstyTrace(30);
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    const dam::Cycle fail_at = makespan / 4;
    const dam::Cycle recover_at = makespan / 2;
    ec.faults.downs.push_back({fail_at, recover_at});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);

    expectAllAccounted(reqs, r.summary);
    EXPECT_GT(r.summary.failedRequests, 0);
    bool completed_after_recovery = false;
    for (const Request& q : reqs) {
        if (q.state == ReqState::Failed) {
            // Casualties fall inside [fail_at, recover_at): in-flight at
            // the crash or refused during downtime.
            EXPECT_GE(q.finishedAt, fail_at);
            EXPECT_LT(q.finishedAt, recover_at);
        }
        if (q.state == ReqState::Finished && q.arrival >= recover_at)
            completed_after_recovery = true;
    }
    EXPECT_TRUE(completed_after_recovery)
        << "recovered replica served no post-repair arrival";
}

TEST(EngineFaults, SlowdownWindowStretchesTheRun)
{
    TraceConfig tc = burstyTrace(20);
    QueueDepthPolicy policy;
    auto run_with = [&](double factor) {
        auto reqs = generateTrace(tc, 5);
        EngineConfig ec;
        if (factor < 1.0)
            ec.faults.slowdowns.push_back(
                {0, ReplicaFaultTimeline::kNoEvent, factor});
        ServingEngine engine(ec, policy);
        EngineResult r = engine.run(reqs);
        EXPECT_EQ(r.summary.completed, 20);
        return r.summary.makespan;
    };
    const dam::Cycle fast = run_with(1.0);
    const dam::Cycle slow = run_with(0.25);
    EXPECT_GT(slow, fast);
}

TEST(EngineFaults, CrashAccountingHoldsWithPrefixCache)
{
    // The crash teardown must return every KV reservation and cache pin
    // (the engine asserts both at the crash and at end of run — this
    // test fails via PanicError if the abort path leaks).
    TraceConfig tc = burstyTrace(30);
    tc.numSessions = 6;
    tc.turnsPerSession = 3;
    QueueDepthPolicy policy;
    auto probe_reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ec.prefixCache.capacityTokens = 1 << 16;
    ServingEngine probe(ec, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).summary.makespan;

    auto reqs = generateTrace(tc, 5);
    ec.faults.downs.push_back({makespan / 3, makespan / 2});
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    expectAllAccounted(reqs, r.summary);
    // The cache restarted cold after the crash, so stats still flow.
    EXPECT_GT(r.summary.prefixLookups, 0);
}

TEST(EngineFaults, DeadlinesCountMissesWithoutShedding)
{
    TraceConfig tc = burstyTrace(20);
    tc.deadlineCycles = 1; // everyone misses
    QueueDepthPolicy policy;
    auto reqs = generateTrace(tc, 5);
    EngineConfig ec;
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    EXPECT_EQ(r.summary.completed, 20);
    EXPECT_EQ(r.summary.deadlineMisses, 20);
    EXPECT_EQ(r.summary.shedRequests, 0);
    EXPECT_DOUBLE_EQ(r.summary.availability, 1.0); // misses still served
}

TEST(EngineFaults, DeadlineShedPolicyDropsSureLosers)
{
    TraceConfig tc = burstyTrace(20);
    tc.deadlineCycles = 1; // provably unmeetable for everyone
    QueueDepthPolicy policy;
    auto reqs = generateTrace(tc, 5);
    EngineConfig ec;
    DeadlineAwareShedPolicy shed;
    ec.admission = &shed;
    ServingEngine engine(ec, policy);
    EngineResult r = engine.run(reqs);
    expectAllAccounted(reqs, r.summary);
    EXPECT_EQ(r.summary.shedRequests, 20);
    EXPECT_EQ(r.summary.completed, 0);
    EXPECT_EQ(r.summary.deadlineMisses, 0);
    EXPECT_DOUBLE_EQ(r.summary.availability, 0.0);
    for (const Request& q : reqs) {
        EXPECT_EQ(q.state, ReqState::Shed);
        EXPECT_EQ(q.generated, 0); // shed requests emit no token
    }
}

// ---- stall diagnostics -------------------------------------------------

TEST(Stall, OversizedHeadThrowsStructuredStallError)
{
    EngineConfig ec;
    ec.batcher.kvBudgetBytes = 10 * 256;
    ec.batcher.kvBytesPerToken = 256;
    QueueDepthPolicy policy;
    std::vector<Request> reqs{mkReq(0, 0, 100, 100)};
    ServingEngine engine(ec, policy);
    try {
        engine.run(reqs);
        FAIL() << "expected StallError";
    } catch (const StallError& e) {
        const StallDiagnostic& d = e.diagnostic;
        EXPECT_FALSE(d.reason.empty());
        ASSERT_EQ(d.blocked.size(), 1u);
        EXPECT_EQ(d.blocked[0].id, 0);
        EXPECT_GT(d.blocked[0].needKvBytes, d.kvBudgetBytes);
        EXPECT_EQ(d.runningRequests, 0);
        EXPECT_EQ(d.kvReservedBytes, 0);
        // what() carries the human rendering of the same dump.
        EXPECT_NE(std::string(e.what()).find("head-of-line"),
                  std::string::npos);
    }
    // StallError remains catchable as the PanicError it subclasses.
    std::vector<Request> again{mkReq(0, 0, 100, 100)};
    ServingEngine engine2(ec, policy);
    EXPECT_THROW(engine2.run(again), PanicError);
}

// ---- cluster failover --------------------------------------------------

namespace {

TraceConfig
clusterTrace(int64_t n)
{
    TraceConfig tc = burstyTrace(n);
    tc.arrivalsPerKcycle = 0.0048; // 4 replicas absorb ~4x the stream
    return tc;
}

} // namespace

TEST(ClusterFaults, KillOneOfFourNoRetryDegradesAvailability)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).aggregate.makespan;

    NoRetryPolicy no_retry;
    cc.retry = &no_retry;
    cc.faults.crashes.push_back({1, makespan * 2 / 5, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    expectAllAccounted(reqs, r.aggregate);
    EXPECT_GT(r.aggregate.failedRequests, 0);
    EXPECT_EQ(r.aggregate.retriedRequests, 0);
    EXPECT_EQ(r.retriesIssued, 0);
    EXPECT_LT(r.aggregate.availability, 1.0);
    EXPECT_GT(r.aggregate.availability, 0.5); // 3 of 4 kept serving
    EXPECT_EQ(r.aggregate.completed + r.aggregate.failedRequests +
                  r.aggregate.shedRequests,
              120);
    // Only the dead replica reports failures; survivors stay clean.
    for (const ReplicaResult& rr : r.replicas) {
        if (rr.replica == 1)
            EXPECT_GT(rr.result.summary.failedRequests, 0);
        else
            EXPECT_EQ(rr.result.summary.failedRequests, 0);
    }
}

TEST(ClusterFaults, FailoverRetriesRecoverTheCasualties)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;

    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster probe(cc, policy);
    const dam::Cycle makespan =
        probe.run(probe_reqs).aggregate.makespan;

    cc.faults.crashes.push_back({1, makespan * 2 / 5, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    expectAllAccounted(reqs, r.aggregate);
    EXPECT_GT(r.retriesIssued, 0);
    EXPECT_EQ(r.aggregate.retriedRequests, r.retriesIssued);
    // Default backoff failover re-serves every casualty: availability
    // returns to 1 and no request reports failed.
    EXPECT_EQ(r.aggregate.failedRequests, 0);
    EXPECT_DOUBLE_EQ(r.aggregate.availability, 1.0);
    EXPECT_EQ(r.aggregate.completed, 120);
    bool saw_retry_attempt = false;
    for (const Request& q : reqs)
        if (q.attempt > 0) {
            saw_retry_attempt = true;
            EXPECT_EQ(q.state, ReqState::Finished);
        }
    EXPECT_TRUE(saw_retry_attempt);
}

TEST(ClusterFaults, FaultyRunIsThreadCountInvariant)
{
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.faults.crashes.push_back({1, 20'000'000, 35'000'000});
        cc.faults.crashes.push_back({2, 50'000'000, 0});
        cc.faults.slowdowns.push_back({0, 10'000'000, 30'000'000, 0.5});
        auto reqs = generateTrace(tc, deriveSeed(2));
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        return std::make_pair(std::move(r), std::move(reqs));
    };
    auto [r1, q1] = run_with(1);
    auto [r4, q4] = run_with(4);

    EXPECT_EQ(r1.aggregate.completed, r4.aggregate.completed);
    EXPECT_EQ(r1.aggregate.failedRequests, r4.aggregate.failedRequests);
    EXPECT_EQ(r1.aggregate.retriedRequests, r4.aggregate.retriedRequests);
    EXPECT_EQ(r1.aggregate.shedRequests, r4.aggregate.shedRequests);
    EXPECT_EQ(r1.aggregate.makespan, r4.aggregate.makespan);
    EXPECT_EQ(r1.retriesIssued, r4.retriesIssued);
    EXPECT_EQ(r1.aggregate.ttftP99, r4.aggregate.ttftP99);
    EXPECT_EQ(r1.aggregate.availability, r4.aggregate.availability);
    ASSERT_EQ(q1.size(), q4.size());
    for (size_t i = 0; i < q1.size(); ++i) {
        EXPECT_EQ(q1[i].state, q4[i].state);
        EXPECT_EQ(q1[i].finishedAt, q4[i].finishedAt);
        EXPECT_EQ(q1[i].attempt, q4[i].attempt);
    }
}

TEST(ClusterFaults, RouterAvoidsRepicasDownAtArrival)
{
    TraceConfig tc = clusterTrace(60);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::RoundRobin;
    // Replica 0 is down for the whole trace.
    cc.faults.crashes.push_back({0, 0, 0});
    auto reqs = generateTrace(tc, deriveSeed(2));
    ServingCluster cluster(cc, policy);
    const std::vector<int64_t> route = cluster.routeTrace(reqs);
    for (int64_t r : route)
        EXPECT_NE(r, 0);
    ClusterResult res = cluster.run(reqs);
    EXPECT_EQ(res.aggregate.completed, 60);
    EXPECT_EQ(res.aggregate.failedRequests, 0);
}

TEST(ClusterFaults, SimultaneousCasualtiesRetryShortestPromptFirst)
{
    // Round-robin puts the odd ids on replica 1, longest prompt first;
    // replica 1 then dies for good with all four still prefilling.
    std::vector<Request> reqs;
    for (int64_t i = 0; i < 8; ++i)
        reqs.push_back(mkReq(i, i, 400 - 40 * i, 4));
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 2;
    cc.routing = RouteKind::RoundRobin;
    cc.faults.crashes.push_back({1, 1'000, 0});
    ClusterResult res = ServingCluster(cc, policy).run(reqs);
    EXPECT_EQ(res.aggregate.completed, 8);
    // The four retries re-arrive together on replica 0, queued shortest
    // prompt first, so their first tokens come in that order.
    for (size_t i = 1; i < 8; i += 2)
        EXPECT_EQ(reqs[i].attempt, 1) << "request " << i;
    for (size_t i = 3; i < 8; i += 2)
        EXPECT_LT(reqs[i].firstTokenAt, reqs[i - 2].firstTokenAt)
            << "request " << i;
}

// ---- summary merging ---------------------------------------------------

TEST(Metrics, MergeFaultCountersAcrossHealthyAndDeadReplicas)
{
    // Replica A: zero faults. Replica B: fully failed (crashed at cycle
    // 0, nothing completed). The merge must sum counters and derive a
    // NaN-free availability.
    std::vector<Request> healthy;
    for (int i = 0; i < 4; ++i) {
        Request r = mkReq(i, 0, 10, 4);
        r.state = ReqState::Finished;
        r.firstTokenAt = 100 + i;
        r.finishedAt = 500 + i;
        r.generated = 4;
        healthy.push_back(r);
    }
    std::vector<Request> dead;
    for (int i = 4; i < 10; ++i) {
        Request r = mkReq(i, 0, 10, 4);
        r.state = ReqState::Failed;
        r.finishedAt = 50;
        dead.push_back(r);
    }
    SloConfig slo;
    ServingSummary a = summarize(healthy, 1000, slo);
    ServingSummary b = summarize(dead, 1000, slo);
    EXPECT_DOUBLE_EQ(a.availability, 1.0);
    EXPECT_DOUBLE_EQ(b.availability, 0.0);
    EXPECT_EQ(b.completed, 0);
    EXPECT_EQ(b.failedRequests, 6);

    // Reclassify two of the dead replica's failures as retried (what
    // the cluster does when failover re-served them elsewhere).
    b.failedRequests -= 2;
    b.retriedRequests += 2;
    refreshAvailability(b);
    EXPECT_DOUBLE_EQ(b.availability, 0.0); // still nothing completed

    ServingSummary m = mergeSummaries({a, b});
    EXPECT_EQ(m.completed, 4);
    EXPECT_EQ(m.failedRequests, 4);
    EXPECT_EQ(m.retriedRequests, 2);
    EXPECT_EQ(m.shedRequests, 0);
    EXPECT_DOUBLE_EQ(m.availability, 0.5); // 4 / (4 + 4)
    EXPECT_FALSE(std::isnan(m.ttftP99));
    EXPECT_FALSE(std::isnan(m.tpotP99));

    // Merging nothing but failures stays NaN-free too.
    ServingSummary all_dead = mergeSummaries({b, b});
    EXPECT_DOUBLE_EQ(all_dead.availability, 0.0);
    EXPECT_FALSE(std::isnan(all_dead.throughputTokensPerKcycle));

    // Shed requests join the denominator.
    ServingSummary c;
    c.completed = 3;
    c.shedRequests = 1;
    refreshAvailability(c);
    EXPECT_DOUBLE_EQ(c.availability, 0.75);
    // And an empty summary defines availability as 1 (not NaN).
    ServingSummary empty;
    refreshAvailability(empty);
    EXPECT_DOUBLE_EQ(empty.availability, 1.0);
}

TEST(ClusterFaults, SeededMtbfPlanConvergesSupersededIncarnations)
{
    // Regression for the wave-convergence abort cluster_sim hit at
    // `--mtbf 32000000` (default seed 42): when a crashed replica's
    // failover retry landed while the original replica's wave later
    // converged, the plain (non-resilience) accounting path asserted
    // that the superseded incarnation stayed Failed — which does not
    // hold once final-timeline recompute reconciles fates. The exact
    // cluster_sim trace and seeded fault plan reproduce that schedule.
    TraceConfig tc;
    tc.numRequests = 480;
    tc.arrivalsPerKcycle = 0.0048;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;

    const auto probe = generateTrace(tc, deriveSeed(2));
    FaultPlanConfig fc;
    fc.mtbfCycles = 32'000'000;
    fc.mttrCycles = 8'000'000;
    fc.horizonCycles = probe.empty() ? 0 : probe.back().arrival * 2;

    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.faults = generateFaultPlan(fc, cc.replicas, deriveSeed(3));
    ASSERT_FALSE(cc.faults.empty()) << "plan must deliver faults";

    for (RouteKind routing : {RouteKind::RoundRobin,
                              RouteKind::LeastQueued,
                              RouteKind::HashAffinity}) {
        SCOPED_TRACE(routeKindName(routing));
        cc.routing = routing;
        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingCluster cluster(cc, policy);
        ClusterResult r = cluster.run(reqs);
        expectAllAccounted(reqs, r.aggregate);
        EXPECT_EQ(r.aggregate.completed + r.aggregate.failedRequests +
                      r.aggregate.shedRequests,
                  480);
    }
}

// ---- co-simulation oracles ---------------------------------------------

namespace {

/** The SeededMtbfPlanConvergesSupersededIncarnations trace and plan. */
std::pair<TraceConfig, FaultPlan>
seededMtbfScenario()
{
    TraceConfig tc;
    tc.numRequests = 480;
    tc.arrivalsPerKcycle = 0.0048;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;
    const auto probe = generateTrace(tc, deriveSeed(2));
    FaultPlanConfig fc;
    fc.mtbfCycles = 32'000'000;
    fc.mttrCycles = 8'000'000;
    fc.horizonCycles = probe.back().arrival * 2;
    return {tc, generateFaultPlan(fc, 4, deriveSeed(3))};
}

} // namespace

TEST(ClusterFaults, FailoverSimulatesEveryIterationOnce)
{
    // Every replica runs once, paused at barriers but never re-run: the
    // policy is consulted once per iteration on the final timelines.
    TraceConfig tc = clusterTrace(120);
    QueueDepthPolicy inner;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    auto probe_reqs = generateTrace(tc, deriveSeed(2));
    const dam::Cycle makespan =
        ServingCluster(cc, inner).run(probe_reqs).aggregate.makespan;
    cc.faults.crashes.push_back({1, makespan * 2 / 5, 0});

    test::CountingPolicy policy(inner);
    auto reqs = generateTrace(tc, deriveSeed(2));
    ClusterResult r = ServingCluster(cc, policy).run(reqs);
    EXPECT_GT(r.retriesIssued, 0);
    EXPECT_EQ(policy.calls(), r.totalIterations);
}

TEST(ClusterFaults, SeededMtbfPlanSimulatesEveryIterationOnce)
{
    auto [tc, plan] = seededMtbfScenario();
    QueueDepthPolicy inner;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.faults = plan;
    for (RouteKind routing : {RouteKind::RoundRobin,
                              RouteKind::LeastQueued,
                              RouteKind::HashAffinity}) {
        SCOPED_TRACE(routeKindName(routing));
        cc.routing = routing;
        test::CountingPolicy policy(inner);
        auto reqs = generateTrace(tc, deriveSeed(2));
        ClusterResult r = ServingCluster(cc, policy).run(reqs);
        EXPECT_GT(r.retriesIssued, 0);
        EXPECT_EQ(policy.calls(), r.totalIterations);
    }
}

TEST(EngineFaults, LateInjectionIsServedFromTheNextBoundary)
{
    EngineConfig ec;
    ec.prefixCache.capacityTokens = 1 << 16;
    QueueDepthPolicy policy;
    TraceConfig tc = burstyTrace(12);
    auto trace = generateTrace(tc, 7);

    // The oracle: run() over the trace, unchanged by the step API.
    auto whole = trace;
    const EngineResult ref = ServingEngine(ec, policy).run(whole);

    // Pausing at an arrival cycle, where the engine has a boundary
    // anyway, perturbs nothing.
    const dam::Cycle pause = trace[trace.size() / 2].arrival;
    auto paused = trace;
    ServingEngine stepped(ec, policy);
    stepped.begin(paused);
    stepped.step(pause);
    stepped.step(ReplicaFaultTimeline::kNoEvent);
    const EngineResult same = stepped.finish();
    EXPECT_EQ(same.iterations, ref.iterations);
    EXPECT_EQ(same.timeline.span(), ref.timeline.span());
    EXPECT_EQ(same.summary.ttftSamples, ref.summary.ttftSamples);
    EXPECT_EQ(same.summary.tpotSamples, ref.summary.tpotSamples);

    // Pause there again, then inject an incarnation stamped well behind
    // the engine's clock.
    auto reqs = trace;
    ServingEngine engine(ec, policy);
    engine.begin(reqs);
    engine.step(pause);
    Request late = mkReq(1000, pause / 2, 64, 8);
    late.attempt = 1;
    engine.inject(late);
    ASSERT_EQ(engine.requestCount(), reqs.size() + 1);
    engine.step(ReplicaFaultTimeline::kNoEvent);
    const EngineResult r = engine.finish(); // asserts KV and pin closure

    ASSERT_EQ(reqs.size(), trace.size() + 1);
    const Request& q = reqs.back();
    EXPECT_EQ(q.id, 1000);
    EXPECT_EQ(q.arrival, pause / 2); // the stamp is kept...
    EXPECT_EQ(q.state, ReqState::Finished);
    EXPECT_GE(q.firstTokenAt, pause); // ...and served only after it
    expectAllAccounted(reqs, r.summary);
    EXPECT_EQ(r.summary.completed, ref.summary.completed + 1);
    // Its TTFT sample includes the wait behind the clock.
    EXPECT_NE(std::find(r.summary.ttftSamples.begin(),
                        r.summary.ttftSamples.end(),
                        static_cast<double>(q.firstTokenAt - q.arrival)),
              r.summary.ttftSamples.end());
    EXPECT_GE(q.firstTokenAt - q.arrival, pause - pause / 2);
}

TEST(EngineFaults, InjectionIntoADeadReplicaFailsWithTheCrash)
{
    TraceConfig tc = burstyTrace(12);
    auto reqs = generateTrace(tc, 7);
    // A permanent crash mid-trace: the engine runs to its death.
    const dam::Cycle crash = reqs[reqs.size() / 2].arrival + 1;
    EngineConfig ec;
    ec.faults.downs.push_back({crash, 0});
    QueueDepthPolicy policy;
    ServingEngine engine(ec, policy);
    engine.begin(reqs);
    engine.step(ReplicaFaultTimeline::kNoEvent);

    // An incarnation placed while the replica still lived, delivered
    // only after the crash: it dies with the crash, never before it.
    Request late = mkReq(1000, crash - 1, 64, 8);
    late.attempt = 1;
    engine.inject(late);
    engine.step(ReplicaFaultTimeline::kNoEvent);
    const EngineResult r = engine.finish();

    const Request& q = reqs.back();
    ASSERT_EQ(q.id, 1000);
    EXPECT_EQ(q.state, ReqState::Failed);
    EXPECT_EQ(q.arrival, crash - 1);
    EXPECT_GE(q.finishedAt, crash);
    for (const Request& c : reqs) {
        if (c.state == ReqState::Failed && c.arrival < crash) {
            EXPECT_GE(q.finishedAt, c.finishedAt) << "request " << c.id;
        }
    }
    expectAllAccounted(reqs, r.summary);
}

TEST(EngineFaults, HeldOpenIdleEngineDeliversACrashOnItsCycle)
{
    // A coordinator feeding arrivals window by window holds the engine
    // open: with nothing to serve yet it must still idle forward to
    // each barrier and deliver the crash there, not at the next arrival.
    const dam::Cycle crash = 3'000'000, recover = 4'000'000;
    const dam::Cycle arrival = 9'000'000;
    auto run = [&](bool hold) {
        EngineConfig ec;
        ec.faults.downs.push_back({crash, recover});
        obs::MetricsConfig mc;
        mc.enabled = true;
        mc.windowCycles = 1'000'000;
        obs::MetricsRegistry m(mc);
        QueueDepthPolicy policy;
        std::vector<Request> none;
        ServingEngine engine(ec, policy);
        engine.attachMetrics(&m);
        engine.begin(none);
        engine.holdOpen(hold);
        engine.step(crash);
        engine.inject(mkReq(0, arrival, 64, 4));
        engine.holdOpen(false);
        engine.step(ReplicaFaultTimeline::kNoEvent);
        engine.finish();
        EXPECT_EQ(none.size(), 1u);
        EXPECT_EQ(none[0].state, ReqState::Finished);
        const obs::TimeSeries& faults = m.find("replica_faults")->series;
        return faults.window(size_t(crash / mc.windowCycles)).count;
    };
    EXPECT_EQ(run(true), 1u);
    EXPECT_EQ(run(false), 0u); // delivered late, with the arrival
}
