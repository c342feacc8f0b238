#include "runtime/cluster.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "support/error.hh"
#include "support/framepool.hh"
#include "support/rng.hh"

namespace step::runtime {

namespace {

/**
 * Router-side model of one replica for join-least-work routing. A real
 * ContinuousBatcher (the replica's admission config) tracks the waiting
 * queue and KV reservations; an analytic serial-server drain model
 * estimates when assigned requests leave, so the router never needs
 * feedback from the replica simulations — routing stays a deterministic
 * single-threaded pre-pass over the trace.
 */
struct ShadowReplica
{
    explicit ShadowReplica(const BatcherConfig& bc) : batcher(bc) {}

    ContinuousBatcher batcher;
    /** Stable-address copies of routed requests (the engine later runs
     *  the originals; the shadow must not mutate their state). */
    std::deque<Request> owned;
    struct InFlight
    {
        Request* req;
        dam::Cycle finish; ///< modeled service completion
    };
    std::vector<InFlight> inflight;
    dam::Cycle busyUntil = 0; ///< serial-server horizon

    /** Retire modeled-finished requests and admit from the queue until
     *  a fixed point (a release can unblock further admissions whose
     *  finish estimates have also passed). */
    void
    drainUntil(dam::Cycle now)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            batcher.admit();
            for (auto it = inflight.begin(); it != inflight.end();) {
                if (it->finish <= now &&
                    it->req->state == ReqState::Prefilling) {
                    batcher.release(it->req);
                    it = inflight.erase(it);
                    progress = true;
                } else {
                    ++it;
                }
            }
        }
    }

    /** Outstanding prompt tokens: un-admitted waiting work plus
     *  admitted-but-unfinished work. */
    int64_t
    queuedPromptTokens() const
    {
        int64_t tokens = batcher.waitingPromptTokens();
        for (const InFlight& f : inflight)
            if (f.req->state == ReqState::Prefilling)
                tokens += f.req->promptLen;
        return tokens;
    }
};

/**
 * Run job(t) for every worker t < @p workers, worker 0 on the calling
 * thread and each other on a thread of its own, and rethrow the
 * lowest-indexed worker's exception once all have returned.
 */
void
forkJoin(size_t workers, const std::function<void(size_t)>& job)
{
    std::vector<std::exception_ptr> errors(workers);
    auto run = [&](size_t t) {
        try {
            job(t);
        } catch (...) {
            errors[t] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> threads; // joined on leaving the scope
        for (size_t t = 1; t < workers; ++t)
            threads.emplace_back(run, t);
        run(0);
    }
    for (std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
}

/**
 * The replica alive at @p at with the least @p load (ties to the lowest
 * index), or -1 when none is.
 */
int64_t
leastLoadedAlive(const std::vector<int64_t>& load, const FaultPlan& faults,
                 dam::Cycle at)
{
    int64_t best = -1;
    for (size_t c = 0; c < load.size(); ++c)
        if (faults.aliveAt(static_cast<int64_t>(c), at) &&
            (best < 0 || load[c] < load[static_cast<size_t>(best)]))
            best = static_cast<int64_t>(c);
    return best;
}

/** One instant per state flip of @p breaker, in cycle order, named by
 *  the state after the edge; value carries @p replica. */
std::vector<ClusterInstant>
breakerInstants(const BreakerTimeline& breaker, int64_t replica)
{
    std::vector<dam::Cycle> edges;
    for (const auto* windows : {&breaker.open, &breaker.halfOpen})
        for (const BreakerTimeline::Window& w : *windows) {
            edges.push_back(w.start);
            if (w.end != 0)
                edges.push_back(w.end);
        }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<ClusterInstant> out;
    for (dam::Cycle c : edges) {
        ClusterInstant ci;
        ci.at = c;
        ci.value = replica;
        switch (breaker.stateAt(c)) {
          case BreakerState::Open:
            ci.kind = ClusterInstant::BreakerOpen;
            break;
          case BreakerState::HalfOpen:
            ci.kind = ClusterInstant::BreakerHalfOpen;
            break;
          case BreakerState::Closed:
            ci.kind = ClusterInstant::BreakerClosed;
            break;
        }
        out.push_back(ci);
    }
    return out;
}

} // namespace

std::string
routeKindName(RouteKind k)
{
    switch (k) {
      case RouteKind::RoundRobin:
        return "round-robin";
      case RouteKind::LeastQueued:
        return "least-queued";
      case RouteKind::HashAffinity:
        return "hash-affinity";
      case RouteKind::PrefixAffinity:
        return "prefix-affinity";
    }
    return "?";
}

ServingCluster::ServingCluster(ClusterConfig cfg, const Policy& policy)
    : cfg_(std::move(cfg)), policy_(policy)
{
    STEP_ASSERT(cfg_.replicas >= 1, "cluster needs at least one replica");
    STEP_ASSERT(cfg_.threads >= 0, "negative worker-thread count");
    STEP_ASSERT(cfg_.bwScales.empty() ||
                    cfg_.bwScales.size() ==
                        static_cast<size_t>(cfg_.replicas),
                "bwScales must be empty or one entry per replica");
    for (double s : cfg_.bwScales)
        STEP_ASSERT(s > 0.0, "bwScales entries must be positive");
}

double
ServingCluster::bwScaleAt(size_t r) const
{
    return cfg_.bwScales.empty() ? 1.0 : cfg_.bwScales[r];
}

double
ServingCluster::flopsPerToken() const
{
    return static_cast<double>(prefillFlopsPerToken(
        cfg_.engine.model, cfg_.engine.numLayers > 0
                               ? cfg_.engine.numLayers
                               : cfg_.engine.model.numLayers));
}

std::vector<BreakerTimeline>
ServingCluster::resilientBreakers(const std::vector<Request>& reqs) const
{
    const auto R = static_cast<size_t>(cfg_.replicas);
    std::vector<BreakerTimeline> out(R);
    if (cfg_.resilience.breakerSource == BreakerSource::Plan) {
        for (size_t r = 0; r < R; ++r)
            out[r] = computeBreakerTimeline(
                cfg_.faults.forReplica(static_cast<int64_t>(r)),
                cfg_.resilience.breaker);
        return out;
    }
    // Telemetry source: observation pass. Run the *plain fault tier* on
    // a copy of the trace — resilience machinery off (so the pass
    // cannot recurse), tracing off, metrics forced on at the health
    // monitor's window width — and infer each replica's timeline from
    // its windowed failure counts and TTFT p95. The pass is itself a
    // deterministic cluster run, so the inferred timelines are pure
    // reproducible data, exactly like the plan-derived ones.
    ClusterConfig oc = cfg_;
    oc.resilience.enabled = false;
    oc.trace = obs::TraceOptions{};
    oc.metrics.enabled = true;
    oc.metrics.windowCycles = cfg_.resilience.health.windowCycles;
    std::vector<Request> copy(reqs);
    ServingCluster observer(std::move(oc), policy_);
    const ClusterResult watched = observer.run(copy);
    for (size_t r = 0; r < R; ++r)
        out[r] = inferBreakerTimeline(*watched.metrics[r],
                                      cfg_.resilience.health);
    return out;
}

std::vector<int64_t>
ServingCluster::routeTrace(const std::vector<Request>& reqs) const
{
    return routeTraceImpl(reqs, nullptr);
}

std::vector<int64_t>
ServingCluster::routeTraceImpl(
    const std::vector<Request>& reqs,
    const std::vector<BreakerTimeline>* pre) const
{
    const auto R = static_cast<size_t>(cfg_.replicas);
    std::vector<int64_t> out(reqs.size(), 0);

    switch (cfg_.routing) {
      case RouteKind::RoundRobin:
        for (size_t i = 0; i < reqs.size(); ++i)
            out[i] = static_cast<int64_t>(i % R);
        break;

      case RouteKind::HashAffinity:
        for (size_t i = 0; i < reqs.size(); ++i) {
            // Pure function of the request id: a request (session) always
            // lands on the same replica, whatever else is in the trace.
            Rng h(0xa24baed4963ee407ULL ^
                  static_cast<uint64_t>(reqs[i].id));
            out[i] = static_cast<int64_t>(h.uniformInt(R));
        }
        break;

      case RouteKind::PrefixAffinity: {
        // Sticky map: dominant-prefix hash -> replica. First sight of a
        // key picks the least-loaded replica by assigned worst-case
        // tokens (a router-side proxy — it deliberately overcharges
        // sticky replicas, since their cache hits make later turns
        // cheaper than the estimate, which biases new sessions away
        // from hot replicas). Pure pre-pass: deterministic, no feedback
        // from the replica simulations.
        std::unordered_map<uint64_t, size_t> owner;
        std::vector<int64_t> load(R, 0);
        for (size_t i = 0; i < reqs.size(); ++i) {
            const uint64_t key = reqs[i].affinityKey;
            size_t pick;
            auto it = key != 0 ? owner.find(key) : owner.end();
            if (it != owner.end()) {
                pick = it->second;
            } else {
                // First sight of a session — or a keyless legacy
                // request, for which every arrival takes this branch: a
                // work-balanced spread with no stickiness to preserve.
                pick = 0;
                for (size_t r = 1; r < R; ++r)
                    if (load[r] < load[pick])
                        pick = r;
                if (key != 0)
                    owner.emplace(key, pick);
            }
            load[pick] += reqs[i].promptLen + reqs[i].outputLen;
            out[i] = static_cast<int64_t>(pick);
        }
        break;
      }

      case RouteKind::LeastQueued: {
        BatcherConfig bc = cfg_.engine.batcher;
        if (bc.kvBytesPerToken == 0)
            bc.kvBytesPerToken = cfg_.engine.model.kvBytesPerToken();
        // Per-token service proxy: the analytic prefill cost stands in
        // for both phases — the router only needs relative load, not
        // absolute latency.
        const double fpt = flopsPerToken();
        const double bw =
            static_cast<double>(cfg_.engine.totalComputeBw);

        std::vector<ShadowReplica> shadows;
        shadows.reserve(R);
        for (size_t r = 0; r < R; ++r)
            shadows.emplace_back(bc);

        for (size_t i = 0; i < reqs.size(); ++i) {
            const Request& q = reqs[i];
            size_t pick = 0;
            int64_t best = std::numeric_limits<int64_t>::max();
            for (size_t r = 0; r < R; ++r) {
                shadows[r].drainUntil(q.arrival);
                int64_t tokens = shadows[r].queuedPromptTokens();
                if (tokens < best) { // ties break to the lowest index
                    best = tokens;
                    pick = r;
                }
            }
            ShadowReplica& s = shadows[pick];
            // Heterogeneous fleet: a scaled replica serves its queue at
            // its own rate, so fast replicas drain sooner and attract
            // more placements — the scale shifts load at routing time.
            const double rbw = bw * bwScaleAt(pick);
            s.owned.push_back(q);
            Request* copy = &s.owned.back();
            copy->state = ReqState::Queued;
            copy->prefilledTokens = 0;
            copy->prefillFlopsDone = 0.0;
            copy->generated = 0;
            copy->firstTokenAt = 0;
            copy->finishedAt = 0;
            // The shadow batcher has no prefix cache; reserve worst case
            // and drop the (unconsulted) block hashes the copy dragged
            // in — multi-turn requests carry dozens of them.
            copy->cachedPrefixTokens = 0;
            copy->blockHashes = {};
            s.batcher.enqueue(copy);
            auto service = static_cast<dam::Cycle>(std::ceil(
                static_cast<double>(q.promptLen + q.outputLen) * fpt /
                rbw));
            service = std::max<dam::Cycle>(1, service);
            s.busyUntil = std::max(q.arrival, s.busyUntil) + service;
            s.inflight.push_back({copy, s.busyUntil});
            out[i] = static_cast<int64_t>(pick);
        }
        break;
      }
    }

    // Health-scored remap (resilience tier): beyond liveness, the
    // router consults the precomputed breaker timelines and the
    // autoscaler's step timeline. A request whose chosen replica is
    // down or breaker-open at arrival moves to the health-scored best
    // candidate; autoscale-parked replicas stop receiving *fresh*
    // placements, but sticky sessions they already own stay (cache
    // affinity outranks parking). All inputs are pure pre-computed
    // data, so the remap stays a deterministic pre-pass.
    if (cfg_.resilience.enabled) {
        std::vector<BreakerTimeline> computed;
        if (pre == nullptr) {
            computed = resilientBreakers(reqs);
            pre = &computed;
        }
        const std::vector<BreakerTimeline>& breakers = *pre;
        const std::vector<AutoscaleStep> autoscale =
            computeAutoscaleTimeline(
                cfg_.resilience.autoscale, reqs, cfg_.faults,
                cfg_.replicas, flopsPerToken(), cfg_.engine.totalComputeBw);
        std::vector<int64_t> load(R, 0);
        std::unordered_map<uint64_t, size_t> sticky; // key -> owner
        for (size_t i = 0; i < reqs.size(); ++i) {
            auto r = static_cast<size_t>(out[i]);
            const dam::Cycle at = reqs[i].arrival;
            const uint64_t key = reqs[i].affinityKey;
            // A session lives where its first turn actually landed —
            // if that was itself remapped, later turns follow it (the
            // warm cache is there, not at the routing pre-pass's pick).
            const auto it = key != 0 ? sticky.find(key) : sticky.end();
            const bool owned = it != sticky.end();
            if (owned && it->second != r) {
                r = it->second;
                out[i] = static_cast<int64_t>(r);
            }
            const bool parked =
                static_cast<int64_t>(r) >=
                autoscaleActiveAt(autoscale, at, cfg_.replicas);
            const bool unhealthy =
                !cfg_.faults.aliveAt(static_cast<int64_t>(r), at) ||
                breakers[r].openAt(at) || (parked && !owned);
            if (unhealthy) {
                const int64_t best = pickResilientTarget(
                    load, cfg_.faults, breakers, autoscale, at,
                    /*affinityOwner=*/-1,
                    cfg_.resilience.remotePrefix.affinityLoadFactor,
                    cfg_.resilience.breaker.halfOpenLoadPenalty,
                    cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales,
                    reqs[i].promptLen + reqs[i].outputLen);
                if (best >= 0) {
                    r = static_cast<size_t>(best);
                    out[i] = best;
                }
            }
            if (key != 0)
                sticky[key] = r; // remaps move the session's home
            load[r] += reqs[i].promptLen + reqs[i].outputLen;
        }
        return out;
    }

    // Fault-aware remap: a health-checked router never sends a request
    // into a replica it knows is down at the arrival cycle. Such
    // requests move to the least-loaded alive replica (assigned
    // worst-case tokens, ties to the lowest index); if *no* replica is
    // alive the assignment stands and the dead replica refuses the
    // request on arrival (a crash mid-flight is still the engine's to
    // discover — the router only sees health at admission time).
    if (!cfg_.faults.empty()) {
        std::vector<int64_t> load(R, 0);
        for (size_t i = 0; i < reqs.size(); ++i) {
            auto r = static_cast<size_t>(out[i]);
            if (!cfg_.faults.aliveAt(static_cast<int64_t>(r),
                                     reqs[i].arrival)) {
                const int64_t best =
                    leastLoadedAlive(load, cfg_.faults, reqs[i].arrival);
                if (best >= 0) {
                    r = static_cast<size_t>(best);
                    out[i] = best;
                }
            }
            load[r] += reqs[i].promptLen + reqs[i].outputLen;
        }
    }
    return out;
}

ClusterResult
ServingCluster::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");

    const auto R = static_cast<size_t>(cfg_.replicas);
    // Breaker timelines come first: routing consults them, and under
    // BreakerSource::Telemetry deriving them runs a whole observation
    // pass — computed once here and shared with failover placement.
    const bool resilient = cfg_.resilience.enabled;
    std::vector<BreakerTimeline> breakers;
    if (resilient)
        breakers = resilientBreakers(reqs);
    const std::vector<int64_t> assignment =
        routeTraceImpl(reqs, resilient ? &breakers : nullptr);

    // Per-replica fault timelines and (below) seeds are derived on the
    // coordinating thread before any worker exists — the one ordering
    // the global-seed contract requires (see rng.hh).
    std::vector<ReplicaFaultTimeline> plans(R);
    for (size_t r = 0; r < R; ++r)
        plans[r] = cfg_.faults.forReplica(static_cast<int64_t>(r));

    // Resilience pre-pass: the autoscaler's step timeline and the
    // sessions' cache owners — pure data derived before any worker
    // exists, like the fault plans and seeds.
    std::vector<AutoscaleStep> autoscale;
    std::unordered_map<uint64_t, int64_t> affinity_owner;
    if (resilient) {
        autoscale = computeAutoscaleTimeline(
            cfg_.resilience.autoscale, reqs, cfg_.faults, cfg_.replicas,
            flopsPerToken(), cfg_.engine.totalComputeBw);
        // Last sight wins: where the session's cache is warm *now*
        // (the health-scored remap may have moved the session's home).
        for (size_t i = 0; i < reqs.size(); ++i)
            if (reqs[i].affinityKey != 0)
                affinity_owner[reqs[i].affinityKey] = assignment[i];
    }

    // Shard the trace into per-replica inputs, in trace order so each
    // starts sorted by arrival. origin[r][k] maps replica r's request k
    // (its shard, then the incarnations injected into it) back to the
    // caller's trace; fin[i] locates request i's latest incarnation.
    // load[r] is the worst-case tokens ever assigned to replica r, by
    // routing or by failover: the failover placement's load.
    struct Final
    {
        size_t replica = 0, slot = 0;
        bool settled = false; ///< a casualty the cluster gave up on
    };
    std::vector<std::vector<Request>> work(R);
    std::vector<std::vector<size_t>> origin(R);
    std::vector<Final> fin(reqs.size());
    std::vector<int64_t> load(R, 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto r = static_cast<size_t>(assignment[i]);
        fin[i] = {r, work[r].size()};
        work[r].push_back(reqs[i]);
        origin[r].push_back(i);
        load[r] += reqs[i].promptLen + reqs[i].outputLen;
    }

    // One live engine, trace sink and metrics registry per replica for
    // the whole run: replica r's worker is their only writer, so
    // recording needs no locks, and exporting in index order erases the
    // thread count from the bytes. Barriers are the cycles where a
    // cross-replica message can start: a crash, a slowdown-drain edge,
    // an arrival the router had to send into a down replica.
    std::vector<ReplicaResult> results(R);
    std::vector<std::unique_ptr<obs::TraceSink>> traces;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> mregs;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    std::vector<dam::Cycle> barriers;
    for (size_t r = 0; r < R; ++r) {
        EngineConfig ec = cfg_.engine;
        ec.seed = results[r].seed = deriveSeed(static_cast<uint64_t>(r));
        results[r].replica = static_cast<int64_t>(r);
        ec.faults = plans[r];
        if (!cfg_.bwScales.empty())
            ec.totalComputeBw = static_cast<int64_t>(std::llround(
                static_cast<double>(cfg_.engine.totalComputeBw) *
                cfg_.bwScales[r]));
        if (resilient) {
            // The drain fires on the same edge that opens the breaker:
            // detection is one signal, shared by routing and migration.
            ec.drain.enabled = true;
            ec.drain.detectCycles = cfg_.resilience.breaker.detectCycles;
            ec.drain.openBelowFactor =
                cfg_.resilience.breaker.openBelowFactor;
            // The engine stamps its breaker flips onto its own trace;
            // replica 0's also carries the cluster-scope autoscale steps.
            ec.clusterInstants =
                breakerInstants(breakers[r], static_cast<int64_t>(r));
            if (r == 0)
                for (const AutoscaleStep& s : autoscale)
                    ec.clusterInstants.push_back(
                        {s.at, ClusterInstant::AutoscaleActive, s.active});
            std::sort(ec.clusterInstants.begin(), ec.clusterInstants.end(),
                      [](const ClusterInstant& a, const ClusterInstant& b) {
                          if (a.at != b.at)
                              return a.at < b.at;
                          return a.kind < b.kind;
                      });
        }
        for (const auto& d : plans[r].downs)
            barriers.push_back(d.failAt);
        for (dam::Cycle c : slowdownDrainEdges(plans[r], ec.drain))
            barriers.push_back(c);
        ServingEngine& engine = *engines.emplace_back(
            std::make_unique<ServingEngine>(std::move(ec), policy_));
        if (cfg_.trace.level != obs::TraceLevel::Off) {
            traces.push_back(std::make_unique<obs::TraceSink>(cfg_.trace));
            engine.attachTrace(traces.back().get());
        }
        if (cfg_.metrics.enabled) {
            mregs.push_back(
                std::make_unique<obs::MetricsRegistry>(cfg_.metrics));
            engine.attachMetrics(mregs.back().get());
        }
        engine.begin(work[r]);
    }
    for (size_t i = 0; i < reqs.size(); ++i)
        if (!cfg_.faults.aliveAt(assignment[i], reqs[i].arrival))
            barriers.push_back(reqs[i].arrival);
    std::sort(barriers.begin(), barriers.end());
    barriers.erase(std::unique(barriers.begin(), barriers.end()),
                   barriers.end());
    barriers.push_back(ReplicaFaultTimeline::kNoEvent);

    // ---- failover -----------------------------------------------------
    // At a barrier, the incarnations that newly ended Failed or Migrated
    // go to the retry policy (or the migration cost model) in
    // (fail-cycle, prompt length, request, attempt) order; a granted one
    // is injected into its target as the next attempt. Casualties that
    // failed together go shortest prompt first: each re-prefills on its
    // target, where prefill is FIFO, so the short ones then reach their
    // first token soonest. Fates never change, so each casualty is
    // handled once. Returns the number injected.
    static const ExponentialBackoffRetry default_retry;
    const RetryPolicy* retry = cfg_.retry ? cfg_.retry : &default_retry;
    auto failover = [&]() {
        // (fail-cycle, prompt, request, attempt, replica, slot)
        std::vector<std::tuple<dam::Cycle, int64_t, size_t, int64_t, size_t,
                               size_t>>
            fails;
        for (size_t r = 0; r < R; ++r)
            for (size_t k = 0; k < engines[r]->requestCount(); ++k) {
                const Request& q = engines[r]->request(k);
                const Final& f = fin[origin[r][k]];
                // Migrated only appears with the resilience drain on.
                if ((q.state == ReqState::Failed ||
                     q.state == ReqState::Migrated) &&
                    !f.settled && f.replica == r && f.slot == k)
                    fails.emplace_back(q.finishedAt, q.promptLen,
                                       origin[r][k], q.attempt, r, k);
            }
        std::sort(fails.begin(), fails.end());
        int64_t injected = 0;
        for (const auto& [at, prompt, orig, attempt, from, slot] : fails) {
            const Request& src = engines[from]->request(slot);
            const bool migrated = src.state == ReqState::Migrated;
            std::optional<dam::Cycle> re;
            int64_t kv = 0; // KV tokens the handoff carries
            if (!resilient) {
                re = retry->reschedule(src, attempt + 1, at);
            } else if (attempt + 1 <=
                       cfg_.resilience.migration.maxMigrations) {
                // Migration cost model: fixed handshake, plus the KV
                // shard for a soft drain (a hard-down source lost its
                // KV — crash casualties re-prefill from scratch).
                const MigrationConfig& mc = cfg_.resilience.migration;
                kv = migrated ? src.prefilledTokens : 0;
                const dam::Cycle rearrive =
                    at + std::max<dam::Cycle>(
                               1, mc.fixedHandoffCycles +
                                      static_cast<dam::Cycle>(kv) *
                                          mc.perTokenTransferCycles);
                // Same contract as RetryPolicy: never hand off work
                // that can only miss its deadline.
                if (src.deadlineAt == 0 || rearrive <= src.deadlineAt)
                    re = rearrive;
            }
            // Only the resilience tier records owners, under keys != 0.
            const auto it = affinity_owner.find(reqs[orig].affinityKey);
            const int64_t owner = it != affinity_owner.end() ? it->second : -1;
            int64_t best = -1;
            if (re && resilient) {
                best = pickResilientTarget(
                    load, cfg_.faults, breakers, autoscale, *re, owner,
                    cfg_.resilience.remotePrefix.affinityLoadFactor,
                    cfg_.resilience.breaker.halfOpenLoadPenalty,
                    cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales,
                    src.promptLen + src.outputLen);
            } else if (re) {
                // With no replica alive at the re-arrival cycle the
                // retry could only be refused again: the failure stands.
                best = leastLoadedAlive(load, cfg_.faults, *re);
            }
            if (best < 0) { // denied (attempts, deadline) or no target
                fin[orig].settled = true;
                continue;
            }
            const auto tgt = static_cast<size_t>(best);
            Request inc = reqs[orig]; // the caller's trace is pristine
            inc.arrival = *re;
            inc.attempt = attempt + 1;
            if (resilient) {
                // Cross-replica prefix fetch: placed off its affinity
                // owner, the incarnation may still pull its warm prefix
                // from the owner's cache — if an earlier turn of the
                // session finished there, as of this barrier, before
                // the handoff lands and after the owner's last crash
                // (the cache died with it). Block-granular; the fetch
                // pays a lookup RTT plus per-token transfer for what
                // the migration did not already carry.
                const RemotePrefixConfig& rp =
                    cfg_.resilience.remotePrefix;
                if (rp.enabled && owner >= 0 &&
                    static_cast<size_t>(owner) != tgt) {
                    const ServingEngine& ow =
                        *engines[static_cast<size_t>(owner)];
                    const auto& downs =
                        plans[static_cast<size_t>(owner)].downs;
                    int64_t credit = 0;
                    for (size_t k = 0; k < ow.requestCount(); ++k) {
                        const Request& q = ow.request(k);
                        if (q.sessionId != inc.sessionId ||
                            q.turn >= inc.turn ||
                            q.state != ReqState::Finished ||
                            q.finishedAt > *re ||
                            std::any_of(downs.begin(), downs.end(),
                                        [&](const auto& d) {
                                            return d.failAt >=
                                                       q.finishedAt &&
                                                   d.failAt <= *re;
                                        }))
                            continue;
                        credit = std::max(
                            credit, std::min(static_cast<int64_t>(
                                                 q.blockHashes.size()) *
                                                 kPrefixBlockTokens,
                                             inc.promptLen - 1));
                    }
                    if (credit > kv) {
                        const dam::Cycle fetched =
                            *re + rp.lookupCycles +
                            static_cast<dam::Cycle>(credit - kv) *
                                rp.perTokenFetchCycles;
                        if (inc.deadlineAt == 0 ||
                            fetched <= inc.deadlineAt) {
                            inc.arrival = fetched;
                            kv = credit;
                        }
                    }
                }
                inc.remoteKvTokens = kv;
            }
            engines[tgt]->inject(inc);
            fin[orig] = {tgt, origin[tgt].size()};
            origin[tgt].push_back(orig);
            load[tgt] += inc.promptLen + inc.outputLen;
            ++injected;
        }
        return injected;
    };

    // ---- co-simulation ------------------------------------------------
    // Every replica steps to each barrier in turn (a fault-free run has
    // none), then to completion, again whenever failover injected more
    // work. Replica r always steps on worker r mod T; the coordinator
    // touches the engines only between epochs.
    const auto T = static_cast<size_t>(std::min(
        cfg_.threads > 0 ? cfg_.threads : cfg_.replicas, cfg_.replicas));
    auto epoch = [&](const std::function<void(size_t)>& job) {
        forkJoin(T, [&](size_t t) {
            for (size_t r = t; r < R; r += T)
                job(r);
        });
    };
    for (const dam::Cycle b : barriers) {
        do
            epoch([&](size_t r) { engines[r]->step(b); });
        while (failover() > 0 && b == ReplicaFaultTimeline::kNoEvent);
    }
    // Each engine finishes and is destroyed on its worker too, so the
    // coroutine frames it frees land in that worker's pool, released when
    // the thread exits; worker 0 is this thread, whose pool is trimmed.
    epoch([&](size_t r) {
        results[r].result = engines[r]->finish();
        engines[r].reset();
    });
    FramePool::trim();
    for (size_t r = 0; r < R; ++r)
        results[r].assignedRequests = static_cast<int64_t>(work[r].size());

    // ---- reflect outcomes back to the caller -------------------------
    // Each replica's summary reclassifies its handoffs. A superseded
    // incarnation (one with a successor) ended Failed — a transparent
    // retry, outside availability — or Migrated, which is transit. A
    // final incarnation still Migrated was denied a target: a loss,
    // counted Failed so availability closes over finished/failed/shed.
    // Every original request then reports its final incarnation, with
    // its original arrival restored.
    for (size_t r = 0; r < R; ++r) {
        ServingSummary& sum = results[r].result.summary;
        for (size_t k = 0; k < work[r].size(); ++k) {
            Request& q = work[r][k];
            const Final& f = fin[origin[r][k]];
            const bool superseded = f.replica != r || f.slot != k;
            STEP_ASSERT(!superseded || q.state == ReqState::Failed ||
                            q.state == ReqState::Migrated,
                        "superseded request " << q.id << " did not hand off");
            if (superseded && q.state == ReqState::Failed) {
                --sum.failedRequests;
                ++sum.retriedRequests;
            } else if (!superseded && q.state == ReqState::Migrated) {
                q.state = ReqState::Failed;
                --sum.migratedRequests;
                ++sum.failedRequests;
            }
        }
        refreshAvailability(sum);
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
        const dam::Cycle arrival = reqs[i].arrival;
        reqs[i] = work[fin[i].replica][fin[i].slot];
        reqs[i].arrival = arrival;
    }

    // Merge in replica-index order: the aggregate depends only on the
    // per-replica results, never on worker scheduling.
    ClusterResult out;
    out.replicas = std::move(results);
    out.traces = std::move(traces);
    out.metrics = std::move(mregs);
    out.breakers = std::move(breakers);
    out.autoscale = std::move(autoscale);
    std::vector<ServingSummary> parts;
    parts.reserve(R);
    for (const ReplicaResult& rr : out.replicas) {
        parts.push_back(rr.result.summary);
        out.timeline.merge(rr.result.timeline);
        out.totalIterations += rr.result.iterations;
    }
    out.aggregate = mergeSummaries(parts);
    // Every injected incarnation superseded a Failed (retry) or a
    // Migrated (migration) one, which the summaries count.
    out.retriesIssued = out.aggregate.retriedRequests;
    out.migrationsIssued = out.aggregate.migratedRequests;
    // Heterogeneous fleets provision sum(scale_r * bw) FLOPs/cycle; the
    // unscaled expression is kept verbatim so scale-less runs stay
    // bit-identical (no float round-trip).
    int64_t provisioned = cfg_.engine.totalComputeBw * cfg_.replicas;
    if (!cfg_.bwScales.empty()) {
        double cap = 0.0;
        for (size_t r = 0; r < R; ++r)
            cap += static_cast<double>(cfg_.engine.totalComputeBw) *
                   cfg_.bwScales[r];
        provisioned = static_cast<int64_t>(std::llround(cap));
    }
    out.aggregate.computeUtilization =
        out.timeline.computeUtilization(provisioned);
    // The aggregate's windowed-SLO view comes from the replica-index-
    // order merge of the registries (mergeSummaries recomputes latency
    // percentiles from raw samples but leaves window fields zero).
    if (!out.metrics.empty()) {
        auto merged =
            std::make_unique<obs::MetricsRegistry>(cfg_.metrics);
        for (const auto& m : out.metrics)
            merged->mergeFrom(*m);
        applySloWindows(out.aggregate, *merged, cfg_.engine.slo);
        out.mergedMetrics = std::move(merged);
    }
    return out;
}

} // namespace step::runtime
