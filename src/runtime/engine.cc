#include "runtime/engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"

namespace step::runtime {

namespace {

/** Hard bound against a non-progressing configuration. */
constexpr int64_t kMaxIterations = 1'000'000;

/**
 * Handles into the run's MetricsRegistry, resolved once per run: every
 * quantity the engine observes is recorded here exactly once. Two
 * latency histograms (windowed percentile signal for the SLO monitor
 * and the telemetry health monitor) plus window-aggregate series for
 * lifecycle events and per-iteration gauges.
 */
struct MetricsInstruments
{
    obs::MetricsRegistry::Handle ttft, tpot, finished, failed, shed,
        migrated, deadlineMisses, sloGoodTokens, queueDepth,
        runningRequests, decodeBatch, kvReservedBytes, generatedTokens,
        prefillTokens, iterCycles, contextSwitches, prefixCacheTokens,
        retried, replicaFaults, capped;

    explicit MetricsInstruments(obs::MetricsRegistry& m)
        : ttft(m.histogram("ttft_cycles")),
          tpot(m.histogram("tpot_cycles")),
          finished(m.series("requests_finished")),
          failed(m.series("requests_failed")),
          shed(m.series("requests_shed")),
          migrated(m.series("requests_migrated")),
          deadlineMisses(m.series("deadline_misses")),
          sloGoodTokens(m.series("slo_good_tokens")),
          queueDepth(m.series("queue_depth")),
          runningRequests(m.series("running_requests")),
          decodeBatch(m.series("decode_batch")),
          kvReservedBytes(m.series("kv_reserved_bytes")),
          generatedTokens(m.series("generated_tokens")),
          prefillTokens(m.series("prefill_tokens")),
          iterCycles(m.series("iter_cycles")),
          contextSwitches(m.series("context_switches")),
          prefixCacheTokens(m.series("prefix_cache_tokens")),
          retried(m.series("requests_retried")),
          replicaFaults(m.series("replica_faults")),
          capped(m.series("requests_capped"))
    {}
};

/** One engine counter: a statistic of one MetricsInstruments entry. */
struct CounterDef
{
    std::string_view name;
    obs::MetricsRegistry::Handle MetricsInstruments::*instrument;
    obs::CounterStat stat;
};

/**
 * The engine's counters, in trace and summary order. The trace's
 * counter track and ServingSummary::counters are both views of this
 * table over the run's registry. requests_migrated counts migrations
 * (its instrument's samples carry the handed-off KV tokens).
 */
using MI = MetricsInstruments;
using enum obs::CounterStat;
constexpr CounterDef kCounters[] = {
    {"queue_depth", &MI::queueDepth, Last},
    {"running_requests", &MI::runningRequests, Last},
    {"decode_batch", &MI::decodeBatch, Last},
    {"kv_reserved_bytes", &MI::kvReservedBytes, Last},
    {"prefix_cache_tokens", &MI::prefixCacheTokens, Last},
    {"iterations", &MI::iterCycles, Count},
    {"prefill_tokens", &MI::prefillTokens, Sum},
    {"generated_tokens", &MI::generatedTokens, Sum},
    {"context_switches", &MI::contextSwitches, Sum},
    {"requests_failed", &MI::failed, Count},
    {"requests_retried", &MI::retried, Count},
    {"requests_shed", &MI::shed, Count},
    {"deadline_misses", &MI::deadlineMisses, Count},
    {"replica_faults", &MI::replicaFaults, Count},
    {"requests_migrated", &MI::migrated, Count},
    {"requests_capped", &MI::capped, Count},
};

using CounterViews = std::array<obs::CounterView, std::size(kCounters)>;

CounterViews
counterViews(const MetricsInstruments& mtr)
{
    CounterViews views;
    for (size_t i = 0; i < views.size(); ++i)
        views[i] = {kCounters[i].name, mtr.*kCounters[i].instrument,
                    kCounters[i].stat};
    return views;
}

} // namespace

EngineConfig::EngineConfig() : model(servingSimConfig()) {}

ServingEngine::ServingEngine(EngineConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy)
{
    if (cfg_.numLayers == 0)
        cfg_.numLayers = cfg_.model.numLayers;
    if (cfg_.batcher.kvBytesPerToken == 0)
        cfg_.batcher.kvBytesPerToken = cfg_.model.kvBytesPerToken();
    STEP_ASSERT(cfg_.totalComputeBw >= 2,
                "bandwidth pool too small to split");
    STEP_ASSERT(cfg_.numLayers > 0, "layer count must be positive");
}

int64_t
prefillFlopsPerToken(const ModelConfig& m, int64_t num_layers)
{
    int64_t d = m.numKvHeads * m.headDim;
    int64_t qkv_cols = m.numQHeads * m.headDim + 2 * d;
    int64_t per_layer = 2 * m.hidden * qkv_cols          // QKV proj
                        + 2 * d * m.hidden               // output proj
                        + m.topK * 3 * 2 * m.hidden *
                              m.moeIntermediate;         // SwiGLU expert
    return per_layer * num_layers;
}

int64_t
ServingEngine::prefillFlopsPerToken() const
{
    return runtime::prefillFlopsPerToken(cfg_.model, cfg_.numLayers);
}

EngineResult
ServingEngine::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");

    ContinuousBatcher batcher(cfg_.batcher);
    // Fresh cold cache per run: replays of one engine stay bit-identical.
    std::unique_ptr<PrefixCache> cache;
    if (cfg_.prefixCache.capacityTokens > 0) {
        cache = std::make_unique<PrefixCache>(cfg_.prefixCache);
        batcher.attachPrefixCache(cache.get());
    }
    EngineResult res;
    // The handles outlive a run; report this run's share of each path.
    const uint64_t rearms0 = rearmHandles_.rearms;
    const uint64_t retargets0 = rearmHandles_.retargets;
    const uint64_t rebuilds0 = rearmHandles_.rebuilds;
    Rng iter_rng(cfg_.seed);
    const double fpt = static_cast<double>(prefillFlopsPerToken());

    // Tracing: scheduler events only matter at level >= Op, so the
    // per-resume branch in dam::Scheduler::drain stays cold below it.
    sched_.setTraceSink(trace_ && trace_->level() >= obs::TraceLevel::Op
                            ? trace_
                            : nullptr);
    // Every quantity is recorded once, into the caller's registry or,
    // when only a trace is attached, a run-local one the trace's
    // counter track reads.
    std::optional<obs::MetricsRegistry> run_metrics;
    obs::MetricsRegistry* metrics = metrics_;
    if (!metrics && trace_)
        metrics = &run_metrics.emplace();
    std::optional<MetricsInstruments> mtr;
    CounterViews views{};
    if (metrics) {
        mtr.emplace(*metrics);
        views = counterViews(*mtr);
    }

    // ---- fault tier ---------------------------------------------------
    const ReplicaFaultTimeline& faults = cfg_.faults;
    const bool have_faults = !faults.empty();
    // Stats of caches dropped by crashes, folded into the summary tail.
    PrefixCacheStats lostCacheStats;

    // ---- resilience tier ---------------------------------------------
    // Slowdown-drain edges: the cycle each qualifying slowdown window
    // has been observed long enough to trigger live migration.
    // Precomputed from the (already normalized, start-sorted) timeline —
    // data, like the fault plan itself.
    std::vector<dam::Cycle> drain_edges;
    if (cfg_.drain.enabled)
        for (const auto& s : faults.slowdowns)
            if (s.factor <= cfg_.drain.openBelowFactor &&
                s.end - s.start > cfg_.drain.detectCycles)
                drain_edges.push_back(s.start + cfg_.drain.detectCycles);
    size_t drain_idx = 0;
    size_t instant_idx = 0; ///< next cfg_.clusterInstants to emit

    // Request completion: cache the full prompt+output stream (the next
    // turn of the session prefixes it), drop the admission pin, free the
    // KV reservation.
    int64_t terminal = 0;
    auto finish = [&](Request* r, dam::Cycle at) {
        r->state = ReqState::Finished;
        r->finishedAt = at;
        if (cache) {
            cache->insert(r->blockHashes,
                          static_cast<int64_t>(r->blockHashes.size()));
            cache->release(*r);
        }
        batcher.release(r);
        ++terminal;
        if (trace_) [[unlikely]]
            trace_->reqFinished(r->id, r->attempt, at);
        if (mtr) [[unlikely]] {
            metrics->record(mtr->finished, at, 1);
            if (r->outputLen > 1)
                metrics->record(
                    mtr->tpot, at,
                    static_cast<uint64_t>(std::llround(tpot(*r))));
            if (r->deadlineAt != 0 && at > r->deadlineAt)
                metrics->record(mtr->deadlineMisses, at, 1);
            if (cfg_.slo.meets(*r))
                metrics->record(mtr->sloGoodTokens, at,
                                static_cast<uint64_t>(r->generated));
        }
    };
    // Terminal failure (replica crash): KV/cache bookkeeping is the
    // *caller's* job — a crash releases everything wholesale first.
    auto failReq = [&](Request* r, dam::Cycle at) {
        r->state = ReqState::Failed;
        r->finishedAt = at;
        ++terminal;
        if (trace_) [[unlikely]]
            trace_->reqFailed(r->id, r->attempt, at);
        if (mtr) [[unlikely]]
            metrics->record(mtr->failed, at, 1);
    };
    // Live migration exit: the incarnation ends here carrying
    // @p kv_tokens of computed KV for the handoff; the cluster turns it
    // into a re-arrival elsewhere. Like failReq, KV/cache bookkeeping
    // is the caller's job.
    auto migrateReq = [&](Request* r, dam::Cycle at, int64_t kv_tokens) {
        r->state = ReqState::Migrated;
        r->finishedAt = at;
        ++terminal;
        if (trace_) [[unlikely]]
            trace_->reqMigrated(r->id, r->attempt, at, kv_tokens);
        if (mtr) [[unlikely]]
            metrics->record(mtr->migrated, at,
                            static_cast<uint64_t>(kv_tokens));
    };

    // Iteration-graph parameters shared across iterations; the per-
    // iteration pieces are the batch's KV lengths, the expert trace, and
    // the policy-assigned matmul bandwidth.
    DecoderParams dp;
    dp.cfg = cfg_.model;
    dp.attnStrategy = cfg_.attnStrategy;
    dp.attnRegions = cfg_.attnRegions;
    dp.kvTileRows = cfg_.kvTileRows;
    dp.moeRegions = cfg_.moeRegions;
    dp.moeTile = cfg_.moeTile;
    dp.denseTile = cfg_.denseTile;
    dp.weightTileCols = cfg_.weightTileCols;
    dp.seed = cfg_.seed;
    // Matmul pipelines the decode share is spread over: the two dense
    // projections, the attention regions, and the MoE regions.
    const int64_t decode_units =
        2 + cfg_.attnRegions +
        (cfg_.moeRegions > 0 ? cfg_.moeRegions : cfg_.model.numExperts);

    dam::Cycle now = 0;
    size_t next_arrival = 0;
    size_t down_idx = 0; ///< next unprocessed crash window
    const auto total = static_cast<int64_t>(reqs.size());

    // Structured stall reporting: dump what was blocked and what held
    // the channels (KV reservations, cache pins), then unwind.
    auto buildStall = [&](std::string reason) {
        StallDiagnostic d;
        d.reason = std::move(reason);
        d.now = now;
        d.iterations = res.iterations;
        d.runningRequests = static_cast<int64_t>(batcher.running().size());
        d.kvReservedBytes = batcher.kvBytesReserved();
        d.kvBudgetBytes = batcher.kvBudgetBytes();
        if (cache) {
            d.cachePinnedRequests = cache->pinnedRequests();
            d.cacheOccupancyTokens = cache->occupancyTokens();
        }
        for (const Request* r : batcher.waiting())
            d.blocked.push_back({r->id, r->promptLen, r->outputLen,
                                 r->kvReservationTokens() *
                                     cfg_.batcher.kvBytesPerToken,
                                 r->arrival});
        return StallError(std::move(d));
    };

    while (terminal < total) {
        if (res.iterations >= kMaxIterations)
            throw buildStall("iteration bound exceeded without progress");

        // ---- deliver arrivals and crash windows in cycle order -------
        // Both can lie anywhere inside the iteration that just ended, so
        // they are replayed earliest-first: an arrival before the crash
        // is enqueued (and then dies with the replica), one after the
        // recovery enqueues into the restarted replica.
        while (true) {
            const bool has_arr = next_arrival < reqs.size() &&
                                 reqs[next_arrival].arrival <= now;
            const bool has_crash = down_idx < faults.downs.size() &&
                                   faults.downs[down_idx].failAt <= now;
            // Resilience events interleave in cycle order; ties go to
            // them so the trace stamps the cause (breaker flip, drain
            // trigger) before its effects. With the tier disabled both
            // lists are empty and this is the historical loop verbatim.
            const dam::Cycle arr_at =
                has_arr ? reqs[next_arrival].arrival
                        : ReplicaFaultTimeline::kNoEvent;
            const dam::Cycle crash_at =
                has_crash ? faults.downs[down_idx].failAt
                          : ReplicaFaultTimeline::kNoEvent;
            const bool has_instant =
                instant_idx < cfg_.clusterInstants.size() &&
                cfg_.clusterInstants[instant_idx].at <= now;
            const bool has_drain = drain_idx < drain_edges.size() &&
                                   drain_edges[drain_idx] <= now;
            const dam::Cycle inst_at =
                has_instant ? cfg_.clusterInstants[instant_idx].at
                            : ReplicaFaultTimeline::kNoEvent;
            const dam::Cycle drain_at =
                has_drain ? drain_edges[drain_idx]
                          : ReplicaFaultTimeline::kNoEvent;
            if (has_instant && inst_at <= arr_at && inst_at <= crash_at &&
                inst_at <= drain_at) {
                const ClusterInstant& ci =
                    cfg_.clusterInstants[instant_idx++];
                if (trace_) [[unlikely]]
                    trace_->instant(clusterInstantName(ci.kind), ci.at,
                                    -1, ci.value);
                continue;
            }
            if (has_drain && drain_at <= arr_at && drain_at <= crash_at) {
                const dam::Cycle at = drain_edges[drain_idx++];
                // Queued and prefilling requests leave for a healthy
                // replica; decoding requests stay and finish locally at
                // the degraded bandwidth (shipping a half-generated
                // stream would cost more than it saves).
                const std::vector<Request*> running(batcher.running());
                for (Request* r : running) {
                    if (r->state != ReqState::Prefilling)
                        continue;
                    const int64_t kv = r->prefilledTokens;
                    if (cache)
                        cache->release(*r);
                    batcher.release(r);
                    migrateReq(r, at, kv);
                }
                for (Request* r : batcher.drainWaiting()) {
                    r->cachedPrefixTokens = 0; // no pin was ever taken
                    migrateReq(r, at, 0);
                }
                continue;
            }
            if (has_arr &&
                (!has_crash || reqs[next_arrival].arrival <=
                                   faults.downs[down_idx].failAt)) {
                Request& r = reqs[next_arrival++];
                if (trace_) [[unlikely]]
                    trace_->reqArrived(r.id, r.sessionId, r.turn,
                                       r.promptLen, r.outputLen, r.arrival,
                                       r.attempt);
                if (mtr && r.attempt > 0) [[unlikely]]
                    metrics->record(mtr->retried, r.arrival, 1);
                if (have_faults && faults.downAt(r.arrival)) {
                    // Connection refused: the replica was down when the
                    // request arrived.
                    failReq(&r, r.arrival);
                } else {
                    batcher.enqueue(&r);
                }
                continue;
            }
            if (has_crash) {
                const ReplicaFaultTimeline::Down w =
                    faults.downs[down_idx++];
                if (trace_) [[unlikely]]
                    trace_->faultDown(now, w.failAt, w.recoverAt);
                if (mtr) [[unlikely]]
                    metrics->record(mtr->replicaFaults, now, 1);
                // Everything in flight or queued dies with the replica;
                // KV reservations and cache pins are torn down wholesale
                // (the invariant checks below catch any leak).
                const std::vector<Request*> running(batcher.running());
                for (Request* r : running) {
                    if (cache)
                        cache->release(*r);
                    batcher.release(r);
                    failReq(r, now);
                }
                for (Request* r : batcher.drainWaiting()) {
                    r->cachedPrefixTokens = 0; // no pin was ever taken
                    failReq(r, now);
                }
                STEP_ASSERT(batcher.kvBytesReserved() == 0,
                            "crash teardown leaked "
                                << batcher.kvBytesReserved()
                                << " B of KV reservations");
                if (cache) {
                    STEP_ASSERT(cache->pinnedRequests() == 0,
                                "crash teardown leaked "
                                    << cache->pinnedRequests()
                                    << " prefix-cache pins");
                    // The cache's KV blocks died with the replica:
                    // fold its stats away and restart cold, so
                    // re-routed requests re-prefill from scratch.
                    const PrefixCacheStats& st = cache->stats();
                    lostCacheStats.lookups += st.lookups;
                    lostCacheStats.hits += st.hits;
                    lostCacheStats.tokensSaved += st.tokensSaved;
                    lostCacheStats.peakOccupancyTokens =
                        std::max(lostCacheStats.peakOccupancyTokens,
                                 st.peakOccupancyTokens);
                    cache = std::make_unique<PrefixCache>(
                        cfg_.prefixCache);
                    batcher.attachPrefixCache(cache.get());
                }
                if (w.recoverAt == 0) {
                    // Dead forever: every remaining arrival is refused
                    // the moment it shows up.
                    while (next_arrival < reqs.size()) {
                        Request& r = reqs[next_arrival++];
                        if (trace_) [[unlikely]]
                            trace_->reqArrived(r.id, r.sessionId, r.turn,
                                               r.promptLen, r.outputLen,
                                               r.arrival, r.attempt);
                        failReq(&r, r.arrival);
                    }
                } else if (w.recoverAt > now) {
                    now = w.recoverAt;
                    if (trace_) [[unlikely]]
                        trace_->faultUp(now);
                } else if (trace_) [[unlikely]] {
                    // The iteration that just ended spans the whole
                    // outage: down and up are delivered at the same
                    // boundary. Emit the up so the trace's down/up
                    // alternation invariant holds.
                    trace_->faultUp(now);
                }
                continue;
            }
            break;
        }
        if (terminal >= total)
            break;

        // Slowdown windows scale the bandwidth pool this iteration
        // splits (>= 2 so the policy can always split something).
        int64_t eff_bw = cfg_.totalComputeBw;
        if (have_faults) {
            const double f = faults.bwFactorAt(now);
            if (f < 1.0)
                eff_bw = std::max<int64_t>(
                    2, static_cast<int64_t>(std::llround(
                           static_cast<double>(cfg_.totalComputeBw) * f)));
        }

        AdmissionContext actx;
        actx.now = now;
        actx.prefillFlopsPerToken = fpt;
        actx.totalComputeBw = eff_bw;
        actx.nominalComputeBw = cfg_.totalComputeBw;
        // Idle-TTL sweep before admission: entries that expire this
        // round cannot be hit by this round's lookups (TTL 0 = off and
        // the calls are never reached).
        if (cache && cfg_.prefixCache.idleTtlCycles > 0) {
            cache->setClock(now);
            cache->evictIdle();
        }
        const ContinuousBatcher::AdmitResult adm =
            batcher.admit(cfg_.admission, actx);
        for (Request* r : adm.shed) {
            r->finishedAt = now;
            ++terminal;
            if (trace_) [[unlikely]]
                trace_->reqShed(r->id, r->attempt, now);
            if (mtr) [[unlikely]]
                metrics->record(mtr->shed, now, 1);
        }
        if (trace_) [[unlikely]] {
            for (const Request* r : adm.admitted)
                trace_->reqAdmitted(r->id, r->attempt, r->cachedPrefixTokens, now);
            for (const Request* r : adm.capped)
                trace_->reqCapped(r->id, now, r->outputLen);
        }
        if (mtr) [[unlikely]]
            for (size_t i = 0; i < adm.capped.size(); ++i)
                metrics->record(mtr->capped, now, 1);

        if (batcher.running().empty()) {
            if (batcher.waitingCount() > 0) {
                if (!adm.shed.empty())
                    continue; // shedding made progress; re-admit
                // Empty machine, nothing admitted: the head can never
                // fit the KV budget and no policy sheds it.
                throw buildStall(
                    "head-of-line request can never be admitted");
            }
            if (terminal >= total)
                break;
            if (next_arrival >= reqs.size())
                throw buildStall("idle with unfinished requests");
            now = reqs[next_arrival].arrival;
            continue;
        }

        // ---- policy decision for this iteration ----------------------
        LoadSnapshot load;
        load.waitingRequests = batcher.waitingCount();
        load.waitingPromptTokens = batcher.waitingPromptTokens();
        std::vector<Request*> decodes;
        std::vector<Request*> prefills;
        for (Request* r : batcher.running()) {
            if (r->state == ReqState::Decoding) {
                decodes.push_back(r);
            } else {
                prefills.push_back(r);
                load.pendingPrefillTokens +=
                    r->promptLen - r->prefilledTokens;
            }
        }
        load.activeDecodes = static_cast<int64_t>(decodes.size());
        BwSplit split = policy_.split(load, eff_bw);

        // ---- iteration length ---------------------------------------
        dam::Cycle iter_cycles = 0;
        int64_t decode_flops = 0;
        uint64_t context_switches = 0;
        if (!decodes.empty()) {
            // One decode step for the whole batch: a decoder-layer pass
            // over the current composition, simulated on the substrate.
            IterationSpec spec;
            for (Request* r : decodes)
                spec.kvLens.push_back(r->contextLen());
            spec.trace = generateExpertTrace(
                iter_rng, static_cast<int64_t>(decodes.size()),
                cfg_.model.numExperts, cfg_.model.topK);
            dp.batch = static_cast<int64_t>(decodes.size());
            dp.computeBwPerMatmul = std::max<int64_t>(
                16, split.decodeBw / decode_units);
            dp.cfg.moeMatmulBw = dp.computeBwPerMatmul;
            if (cfg_.recycleGraphs && !iterGraph_)
                iterGraph_ = std::make_unique<Graph>(SimConfig{},
                                                     &arena_);
            if (trace_) [[unlikely]] {
                // Graph runs stamp events in graph-local cycles; anchor
                // them on the serving timeline. iter_cycles >= the
                // simulated span, so successive bases stay monotone.
                trace_->setTimeBase(now);
            }
            static constexpr verify::VerifyOptions kVerifyAll{};
            SimResult sim = runDecoderIteration(
                dp, spec, &sched_,
                cfg_.recycleGraphs ? iterGraph_.get() : nullptr,
                cfg_.recycleGraphs ? &rearmHandles_ : nullptr,
                cfg_.verifyGraphs ? &kVerifyAll : nullptr);
            if (!cfg_.recycleGraphs)
                ++res.graphRebuilds;
            iter_cycles = sim.cycles * static_cast<dam::Cycle>(
                cfg_.numLayers);
            decode_flops = sim.totalFlops * cfg_.numLayers;
            context_switches = sim.contextSwitches;
        } else {
            // Prefill-only iteration: run until the head request's
            // prompt completes, but wake up for the next arrival.
            STEP_ASSERT(split.prefillBw > 0,
                        "policy starves prefill with no decode work");
            // Only the uncached suffix costs prefill flops; the cached
            // prefix's KV is already resident, and migrated-in KV skips
            // compute the same way (>= 1 suffix token always remains,
            // see Request::prefillSkipTokens).
            const Request* head = prefills.front();
            double remaining =
                static_cast<double>(head->promptLen -
                                    head->prefillSkipTokens()) *
                    fpt -
                head->prefillFlopsDone;
            iter_cycles = static_cast<dam::Cycle>(std::ceil(
                remaining / static_cast<double>(split.prefillBw)));
            iter_cycles = std::max<dam::Cycle>(1, iter_cycles);
            if (next_arrival < reqs.size()) {
                dam::Cycle gap = reqs[next_arrival].arrival - now;
                iter_cycles = std::max<dam::Cycle>(
                    1, std::min(iter_cycles, gap));
            }
            // Wake exactly on fault-timeline edges too, so crashes and
            // bandwidth changes land on the cycle they were scripted at.
            if (have_faults) {
                const dam::Cycle edge = faults.nextEventAfter(now);
                if (edge != ReplicaFaultTimeline::kNoEvent && edge > now)
                    iter_cycles = std::max<dam::Cycle>(
                        1, std::min(iter_cycles, edge - now));
            }
            // ... and on resilience edges (drain triggers, cluster
            // instants), for the same exact-cycle reason.
            if (drain_idx < drain_edges.size() &&
                drain_edges[drain_idx] > now)
                iter_cycles = std::max<dam::Cycle>(
                    1, std::min(iter_cycles,
                                drain_edges[drain_idx] - now));
            if (instant_idx < cfg_.clusterInstants.size() &&
                cfg_.clusterInstants[instant_idx].at > now)
                iter_cycles = std::max<dam::Cycle>(
                    1, std::min(iter_cycles,
                                cfg_.clusterInstants[instant_idx].at -
                                    now));
        }

        // ---- prefill progress (FIFO, analytic) ----------------------
        double budget = static_cast<double>(split.prefillBw) *
                        static_cast<double>(iter_cycles);
        double consumed = 0.0;
        int64_t prefilled_tokens = 0;
        int64_t first_tokens = 0;
        for (Request* r : prefills) {
            if (budget <= 0.0)
                break;
            double need =
                static_cast<double>(r->promptLen -
                                    r->prefillSkipTokens()) *
                    fpt -
                r->prefillFlopsDone;
            double use = std::min(need, budget);
            budget -= use;
            consumed += use;
            r->prefillFlopsDone += use;
            int64_t tok_before = r->prefilledTokens;
            r->prefilledTokens = std::min(
                r->promptLen,
                r->prefillSkipTokens() +
                    static_cast<int64_t>(r->prefillFlopsDone / fpt));
            prefilled_tokens += r->prefilledTokens - tok_before;
            if (use >= need) {
                // Prompt done: the first output token is emitted at the
                // point inside the iteration where its prefill finished.
                auto offset = static_cast<dam::Cycle>(std::ceil(
                    consumed / static_cast<double>(split.prefillBw)));
                r->firstTokenAt =
                    now + std::min(offset, iter_cycles);
                r->generated = 1;
                ++first_tokens;
                r->state = ReqState::Decoding;
                if (trace_) [[unlikely]]
                    trace_->reqFirstToken(r->id, r->attempt, r->firstTokenAt);
                if (mtr) [[unlikely]]
                    metrics->record(mtr->ttft, r->firstTokenAt,
                                    r->firstTokenAt - r->arrival);
                // The completed prompt prefix becomes cacheable for the
                // session's (or any prefix-sharing) next request.
                if (cache)
                    cache->insert(r->blockHashes, r->promptBlocks);
                if (r->generated >= r->outputLen)
                    finish(r, r->firstTokenAt);
            }
        }

        // ---- decode progress ----------------------------------------
        for (Request* r : decodes) {
            r->generated += 1;
            if (r->generated >= r->outputLen)
                finish(r, now + iter_cycles);
        }

        // ---- accounting ---------------------------------------------
        IterationSample sample;
        sample.start = now;
        sample.length = iter_cycles;
        sample.prefillBw = split.prefillBw;
        sample.decodeBw = split.decodeBw;
        sample.usefulFlops =
            decode_flops + static_cast<int64_t>(consumed);
        sample.decodeBatch = static_cast<int64_t>(decodes.size());
        sample.prefillTokens = prefilled_tokens;
        res.timeline.record(sample);
        ++res.iterations;

        now += iter_cycles;

        if (mtr) [[unlikely]] {
            metrics->record(mtr->queueDepth, now,
                            static_cast<uint64_t>(batcher.waitingCount()));
            metrics->record(mtr->runningRequests, now,
                            batcher.running().size());
            metrics->record(mtr->decodeBatch, now,
                            static_cast<uint64_t>(sample.decodeBatch));
            metrics->record(mtr->kvReservedBytes, now,
                            static_cast<uint64_t>(
                                batcher.kvBytesReserved()));
            if (cache)
                metrics->record(mtr->prefixCacheTokens, now,
                                static_cast<uint64_t>(
                                    cache->occupancyTokens()));
            // Every decode emits one token; prefill completions emit
            // their first token inside this iteration too.
            metrics->record(mtr->generatedTokens, now,
                            decodes.size() +
                                static_cast<uint64_t>(first_tokens));
            metrics->record(mtr->prefillTokens, now,
                            static_cast<uint64_t>(prefilled_tokens));
            metrics->record(mtr->iterCycles, now, iter_cycles);
            metrics->record(mtr->contextSwitches, now, context_switches);
            if (trace_)
                trace_->sampleCounters(now, *metrics, views);
        }
    }

    // Abort-path accounting invariant: every KV reservation and prefix
    // pin taken during the run — including ones for requests that
    // failed or were shed — must have been returned.
    STEP_ASSERT(batcher.kvBytesReserved() == 0,
                "run ended with " << batcher.kvBytesReserved()
                                  << " B of KV still reserved");
    if (cache)
        STEP_ASSERT(cache->pinnedRequests() == 0,
                    "run ended with " << cache->pinnedRequests()
                                      << " prefix-cache pins held");

    res.graphRearms = rearmHandles_.rearms - rearms0;
    res.graphRetargets = rearmHandles_.retargets - retargets0;
    res.graphRebuilds += rearmHandles_.rebuilds - rebuilds0;

    res.summary = summarize(reqs, res.timeline.span(), cfg_.slo);
    res.summary.computeUtilization =
        res.timeline.computeUtilization(cfg_.totalComputeBw);
    if (cache) {
        // Fold in caches lost to crashes: their lookups/hits happened
        // even though their content died with the replica.
        PrefixCacheStats st = cache->stats();
        st.lookups += lostCacheStats.lookups;
        st.hits += lostCacheStats.hits;
        st.tokensSaved += lostCacheStats.tokensSaved;
        st.peakOccupancyTokens = std::max(
            st.peakOccupancyTokens, lostCacheStats.peakOccupancyTokens);
        res.summary.prefixLookups = st.lookups;
        res.summary.prefixHits = st.hits;
        res.summary.prefixTokensSaved = st.tokensSaved;
        res.summary.prefixPeakOccupancyTokens = st.peakOccupancyTokens;
        // A single engine is its own busiest replica.
        res.summary.prefixPeakOccupancyMaxReplica =
            st.peakOccupancyTokens;
        // summarize ran before the cache counters were attached.
        refreshPrefixDerivedStats(res.summary);
    }
    if (trace_)
        res.summary.counters = obs::snapshotCounters(*metrics, views);
    if (metrics_)
        applySloWindows(res.summary, *metrics_, cfg_.slo);
    return res;
}

} // namespace step::runtime
