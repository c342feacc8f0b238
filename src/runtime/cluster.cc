#include "runtime/cluster.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/histogram.hh"
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
 * The cluster's worker threads: T - 1 of them live for one run and park
 * between epochs. run(job) calls job(t) for every worker t < T, worker 0
 * on the calling thread, and rethrows the lowest-indexed worker's
 * exception once all have returned. A worker keeps its thread, and so
 * its coroutine-frame pool, from one epoch to the next.
 */
class EpochPool
{
  public:
    explicit EpochPool(size_t workers) : errors_(workers)
    {
        for (size_t t = 1; t < workers; ++t)
            threads_.emplace_back([this, t] { serve(t); });
    }

    ~EpochPool()
    {
        {
            std::lock_guard lock(mu_);
            stop_ = true;
        }
        wake_.notify_all(); // the jthreads join as threads_ goes
    }

    EpochPool(const EpochPool&) = delete;
    EpochPool& operator=(const EpochPool&) = delete;

    void
    run(const std::function<void(size_t)>& job)
    {
        {
            std::lock_guard lock(mu_);
            job_ = &job;
            busy_ = threads_.size();
            ++epoch_;
        }
        wake_.notify_all();
        call(0);
        {
            std::unique_lock lock(mu_);
            done_.wait(lock, [this] { return busy_ == 0; });
            job_ = nullptr;
        }
        for (std::exception_ptr& e : errors_)
            if (e)
                std::rethrow_exception(std::exchange(e, nullptr));
    }

  private:
    void
    call(size_t t)
    {
        try {
            (*job_)(t);
        } catch (...) {
            errors_[t] = std::current_exception();
        }
    }

    void
    serve(size_t t)
    {
        uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock lock(mu_);
                wake_.wait(lock,
                           [&] { return stop_ || epoch_ != seen; });
                if (stop_)
                    return;
                seen = epoch_;
            }
            call(t);
            std::lock_guard lock(mu_);
            if (--busy_ == 0)
                done_.notify_one();
        }
    }

    std::mutex mu_;
    std::condition_variable wake_, done_;
    const std::function<void(size_t)>* job_ = nullptr;
    uint64_t epoch_ = 0;
    size_t busy_ = 0;
    bool stop_ = false;
    std::vector<std::exception_ptr> errors_;
    std::vector<std::jthread> threads_; ///< last: joined before the rest
};

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

/**
 * Append to @p out one instant per edge of @p breaker at a cycle in
 * [@p from, @p to), named by the state after it; value carries
 * @p replica. Overlapping windows can leave the state as it was at an
 * edge: the engine still wakes there but does not trace it again.
 */
void
appendBreakerInstants(const BreakerTimeline& breaker, int64_t replica,
                      dam::Cycle from, dam::Cycle to,
                      std::vector<ClusterInstant>& out)
{
    std::vector<dam::Cycle> edges;
    for (const auto* windows : {&breaker.open, &breaker.halfOpen})
        for (const BreakerTimeline::Window& w : *windows) {
            if (w.start >= from && w.start < to)
                edges.push_back(w.start);
            if (w.end != 0 && w.end >= from && w.end < to)
                edges.push_back(w.end);
        }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
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
ServingCluster::upfrontBreakers() const
{
    const auto R = static_cast<size_t>(cfg_.replicas);
    std::vector<BreakerTimeline> out(R);
    if (cfg_.resilience.breakerSource == BreakerSource::Plan)
        for (size_t r = 0; r < R; ++r)
            out[r] = computeBreakerTimeline(
                cfg_.faults.forReplica(static_cast<int64_t>(r)),
                cfg_.resilience.breaker);
    return out;
}

std::vector<AutoscaleStep>
ServingCluster::autoscaleTimeline(const std::vector<Request>& reqs) const
{
    return computeAutoscaleTimeline(cfg_.resilience.autoscale, reqs,
                                    cfg_.faults, cfg_.replicas,
                                    flopsPerToken(),
                                    cfg_.engine.totalComputeBw);
}

std::vector<int64_t>
ServingCluster::routeTrace(const std::vector<Request>& reqs) const
{
    std::vector<int64_t> out = baseRoute(reqs);
    if (cfg_.resilience.enabled) {
        const std::vector<AutoscaleStep> autoscale = autoscaleTimeline(reqs);
        HealthScoredRouter(cfg_.faults, autoscale, cfg_.replicas,
                           cfg_.resilience,
                           cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales)
            .route(reqs, 0, reqs.size(), upfrontBreakers(), out);
    } else {
        faultAwareRemap(reqs, out);
    }
    return out;
}

std::vector<int64_t>
ServingCluster::baseRoute(const std::vector<Request>& reqs) const
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

    return out;
}

void
ServingCluster::faultAwareRemap(const std::vector<Request>& reqs,
                                std::vector<int64_t>& out) const
{
    // Fault-aware remap: a health-checked router never sends a request
    // into a replica it knows is down at the arrival cycle. Such
    // requests move to the least-loaded alive replica (assigned
    // worst-case tokens, ties to the lowest index); if *no* replica is
    // alive the assignment stands and the dead replica refuses the
    // request on arrival (a crash mid-flight is still the engine's to
    // discover — the router only sees health at admission time).
    if (cfg_.faults.empty())
        return;
    std::vector<int64_t> load(static_cast<size_t>(cfg_.replicas), 0);
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto r = static_cast<size_t>(out[i]);
        if (!cfg_.faults.aliveAt(static_cast<int64_t>(r), reqs[i].arrival)) {
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

ClusterResult
ServingCluster::run(std::vector<Request>& reqs)
{
    STEP_ASSERT(std::is_sorted(reqs.begin(), reqs.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival < b.arrival;
                               }),
                "request trace must be sorted by arrival");

    const auto R = static_cast<size_t>(cfg_.replicas);
    const bool resilient = cfg_.resilience.enabled;
    // Telemetry breakers are learned as the run goes: the replicas pause
    // at every health-window edge, the monitors read the window that
    // just closed, and the next window's arrivals are routed with the
    // breaker states known then. Plan breakers, and runs without the
    // tier, route the whole trace up front.
    const bool online =
        resilient && cfg_.resilience.breakerSource == BreakerSource::Telemetry;
    const dam::Cycle window = cfg_.resilience.health.windowCycles;
    STEP_ASSERT(!online || window > 0, "health window must be positive");

    // Per-replica fault timelines and (below) seeds are derived on the
    // coordinating thread before any worker exists — the one ordering
    // the global-seed contract requires (see rng.hh).
    std::vector<ReplicaFaultTimeline> plans(R);
    for (size_t r = 0; r < R; ++r)
        plans[r] = cfg_.faults.forReplica(static_cast<int64_t>(r));

    // Routing: the base routers never read breakers, so they stay a
    // pre-pass over the whole trace; the resilience tier remaps it with
    // the breakers and the autoscaler's step timeline (pure data derived
    // before any worker exists, like the fault plans and seeds).
    std::vector<int64_t> assignment = baseRoute(reqs);
    std::vector<AutoscaleStep> autoscale;
    std::vector<BreakerTimeline> breakers;
    std::optional<HealthScoredRouter> router;
    if (resilient) {
        autoscale = autoscaleTimeline(reqs);
        breakers = upfrontBreakers();
        router.emplace(cfg_.faults, autoscale, cfg_.replicas,
                       cfg_.resilience,
                       cfg_.bwScales.empty() ? nullptr : &cfg_.bwScales);
    } else {
        faultAwareRemap(reqs, assignment);
    }

    // Per-replica inputs, in trace order so each starts sorted by
    // arrival: up front into work[r], or (online) injected into the
    // running engines window by window. origin[r][k] maps replica r's
    // request k (its shard, then the incarnations injected into it) back
    // to the caller's trace; fin[i] locates request i's latest
    // incarnation. load[r] is the worst-case tokens assigned to replica
    // r so far, by routing or by failover: the failover placement's
    // load. affinity_owner holds each session's latest home (resilience
    // tier only). Barriers are the cycles where a cross-replica message
    // can start: a crash, a slowdown-drain edge, an arrival the router
    // had to send into a down replica.
    struct Final
    {
        size_t replica = 0, slot = 0;
        bool settled = false; ///< a casualty the cluster gave up on
    };
    std::vector<std::vector<Request>> work(R);
    std::vector<std::vector<size_t>> origin(R);
    std::vector<Final> fin(reqs.size());
    std::vector<int64_t> load(R, 0);
    std::unordered_map<uint64_t, int64_t> affinity_owner;
    std::set<dam::Cycle> barriers;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    size_t routed = 0; ///< reqs[0, routed) are placed
    auto placeUntil = [&](dam::Cycle end) { // arrivals before @p end
        size_t last = routed;
        while (last < reqs.size() && reqs[last].arrival < end)
            ++last;
        if (router)
            router->route(reqs, routed, last, breakers, assignment);
        for (size_t i = routed; i < last; ++i) {
            const auto r = static_cast<size_t>(assignment[i]);
            fin[i] = {r, origin[r].size()};
            origin[r].push_back(i);
            load[r] += reqs[i].promptLen + reqs[i].outputLen;
            if (resilient && reqs[i].affinityKey != 0)
                affinity_owner[reqs[i].affinityKey] = assignment[i];
            if (!cfg_.faults.aliveAt(assignment[i], reqs[i].arrival))
                barriers.insert(reqs[i].arrival);
            if (online)
                engines[r]->inject(reqs[i]);
            else
                work[r].push_back(reqs[i]);
        }
        routed = last;
    };
    if (!online)
        placeUntil(ReplicaFaultTimeline::kNoEvent);

    // One live engine, trace sink and metrics registry per replica for
    // the whole run: replica r's worker is their only writer, so
    // recording needs no locks, and exporting in index order erases the
    // thread count from the bytes.
    std::vector<ReplicaResult> results(R);
    std::vector<std::unique_ptr<obs::TraceSink>> traces;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> mregs;
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
        }
        for (const auto& d : plans[r].downs)
            barriers.insert(d.failAt);
        for (dam::Cycle c : slowdownDrainEdges(plans[r], ec.drain))
            barriers.insert(c);
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
        engine.holdOpen(online);
    }

    // Each engine stamps the breaker flips that concern it onto its own
    // trace; replica 0's also carries the cluster-scope autoscale steps.
    // Online, an edge posts the flips known there, up to the next edge.
    auto postInstants = [&](dam::Cycle from, dam::Cycle to) {
        for (size_t r = 0; r < R; ++r) {
            std::vector<ClusterInstant> flips;
            appendBreakerInstants(breakers[r], static_cast<int64_t>(r),
                                  from, to, flips);
            if (r == 0)
                for (const AutoscaleStep& s : autoscale)
                    if (s.at >= from && s.at < to)
                        flips.push_back(
                            {s.at, ClusterInstant::AutoscaleActive, s.active});
            for (const ClusterInstant& ci : flips)
                engines[r]->postInstant(ci);
        }
    };

    // Online health monitoring: at edge b every replica's window
    // [b - W, b) has closed — the replicas stepped to a boundary at or
    // past b, and nothing delivered later is stamped before it — so its
    // failures, first tokens and windowed p95 TTFT are read from the
    // engines' requests, exactly as the metrics registry windows them.
    // Returns the latest failure or first-token stamp in the fleet.
    std::vector<HealthMonitor> monitors;
    auto observe = [&](dam::Cycle b) {
        dam::Cycle latest = 0;
        for (size_t r = 0; r < R; ++r) {
            uint64_t failed = 0;
            obs::LogHistogram ttft;
            for (size_t k = 0; k < engines[r]->requestCount(); ++k) {
                const Request& q = engines[r]->request(k);
                if (q.state == ReqState::Failed) {
                    latest = std::max(latest, q.finishedAt);
                    if (q.finishedAt >= b - window && q.finishedAt < b)
                        ++failed;
                }
                if (q.firstTokenAt != 0) {
                    latest = std::max(latest, q.firstTokenAt);
                    if (q.firstTokenAt >= b - window && q.firstTokenAt < b)
                        ttft.record(q.firstTokenAt - q.arrival);
                }
            }
            monitors[r].observeWindow(failed, ttft.count(),
                                      ttft.percentile(95.0));
            breakers[r] = monitors[r].timeline();
        }
        return latest;
    };
    dam::Cycle edge = ReplicaFaultTimeline::kNoEvent; ///< next window edge
    if (online) {
        monitors.assign(R, HealthMonitor(cfg_.resilience.health));
        placeUntil(window);
        postInstants(0, window);
        edge = window;
    } else if (resilient) {
        postInstants(0, ReplicaFaultTimeline::kNoEvent);
    }

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
    // Every replica steps to each barrier in turn (a fault-free run
    // without online monitoring has none), then to completion, again
    // whenever failover injected more work. Replica r always steps on
    // worker r mod T; the coordinator touches the engines only between
    // epochs. Online, window edges are barriers too, until every arrival
    // is routed, every replica has settled and the monitors have seen
    // the window of the last failure or first token.
    const auto T = static_cast<size_t>(std::min(
        cfg_.threads > 0 ? cfg_.threads : cfg_.replicas, cfg_.replicas));
    EpochPool pool(T);
    auto epoch = [&](const std::function<void(size_t)>& job) {
        pool.run([&](size_t t) {
            for (size_t r = t; r < R; r += T)
                job(r);
        });
    };
    int64_t epochs = 0;
    for (;;) {
        dam::Cycle b = edge;
        if (!barriers.empty() && *barriers.begin() <= b) {
            b = *barriers.begin();
            barriers.erase(barriers.begin());
        }
        epoch([&](size_t r) { engines[r]->step(b); });
        ++epochs;
        const bool at_edge = b == edge && b != ReplicaFaultTimeline::kNoEvent;
        dam::Cycle latest = 0;
        if (at_edge) {
            latest = observe(b);
            placeUntil(b + window);
            postInstants(b, b + window);
        }
        const int64_t injected = failover();
        if (at_edge) {
            const bool settled =
                routed == reqs.size() && injected == 0 && latest < b &&
                std::all_of(engines.begin(), engines.end(),
                            [](const auto& e) { return e->allTerminal(); });
            edge = settled ? ReplicaFaultTimeline::kNoEvent : b + window;
            if (settled)
                for (auto& e : engines)
                    e->holdOpen(false);
        }
        if (b == ReplicaFaultTimeline::kNoEvent && injected == 0)
            break;
    }
    // Each engine finishes and is destroyed on its worker too, so the
    // coroutine frames it frees land in that worker's pool, released when
    // the pool's threads exit; worker 0 is this thread, whose pool is
    // trimmed.
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
    out.epochs = epochs;
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
