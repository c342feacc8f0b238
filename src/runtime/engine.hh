/**
 * @file
 * Continuous-batching serving engine on the DAM substrate. Per batching
 * iteration the engine (1) admits arrivals through the KV-budgeted
 * batcher — with the prefix cache enabled, admission charges KV and
 * prefill only for the prompt suffix the cache does not already hold —
 * (2) asks the active dynamic-parallelism policy to split the compute
 * bandwidth between prefill and decode, (3) arms the engine's one
 * decoder-layer STeP graph (an IterationGraph, built on the first
 * decode iteration and rearmed in place after) for the *current*
 * decode-batch composition (per-request KV lengths + a fresh
 * expert-routing trace) and runs it through a reused dam::Scheduler,
 * and (4) advances per-request state, recording TTFT/TPOT events and
 * inserting completed prefixes back into the cache. Prefill progress is
 * modeled analytically at the policy-allocated bandwidth (prefill is
 * dense and static — the dynamism the simulated graphs must capture
 * lives in decode).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/utilization.hh"
#include "runtime/batcher.hh"
#include "runtime/faults.hh"
#include "runtime/metrics.hh"
#include "runtime/policy.hh"
#include "runtime/prefixcache.hh"
#include "runtime/request.hh"
#include "runtime/resilience.hh"
#include "workloads/decoder.hh"

namespace step::obs {
class TraceSink;
class MetricsRegistry;
}

namespace step::runtime {

struct EngineConfig
{
    ModelConfig model;
    /** Layers the per-layer iteration cycles scale by; 0 = model value. */
    int64_t numLayers = 0;
    /** Compute-bandwidth pool the policy splits (FLOPs/cycle). */
    int64_t totalComputeBw = 8192;

    // ---- iteration-graph knobs (see DecoderParams) -------------------
    ParStrategy attnStrategy = ParStrategy::Dynamic;
    int64_t attnRegions = 4;
    int64_t kvTileRows = 32;
    int64_t moeRegions = 4;
    int64_t moeTile = 16;
    int64_t denseTile = 16;
    int64_t weightTileCols = 64;

    BatcherConfig batcher; ///< kvBytesPerToken 0 = derive from model
    /**
     * KV prefix cache (capacityTokens 0 = disabled, the default — the
     * engine is then bit-identical to a cache-less build). When
     * enabled, admission charges prefill flops and KV reservation only
     * for the uncached suffix, completed prefixes are inserted back,
     * and ServingSummary reports hit-rate / tokens-saved / occupancy.
     * Each run() starts with a cold cache so replays stay seeded.
     */
    PrefixCacheConfig prefixCache;
    SloConfig slo;
    uint64_t seed = 42;

    /**
     * This replica's fault timeline (empty = fault-free, the default —
     * the engine is then bit-identical to a fault-less build). A crash
     * fails every in-flight and queued request, releases their KV
     * reservations and prefix-cache pins, and drops the cache (its KV
     * content died with the replica); arrivals during downtime are
     * refused on arrival. Slowdown windows scale totalComputeBw by
     * their factor. Faults take effect at iteration boundaries (the
     * engine's event granularity); analytic prefill iterations are
     * clamped to the next timeline edge so bandwidth changes land on
     * exact cycles.
     */
    ReplicaFaultTimeline faults;
    /**
     * Admission/shedding policy consulted per waiting request at every
     * admission round (not owned; may be null = never shed). See
     * AdmissionPolicy; with one attached, requests that could never fit
     * the KV budget are shed instead of stalling the engine.
     */
    const AdmissionPolicy* admission = nullptr;

    /**
     * Engine-side live-migration trigger (see SlowdownDrainConfig):
     * when a deep slowdown window has run for the detection lag, queued
     * and prefilling requests leave in state Migrated (with finishedAt
     * and their prefill progress as the KV tokens to hand off) instead
     * of grinding through the degraded window; the cluster reschedules
     * them. Disabled (default) the engine is bit-identical to a
     * drain-less build.
     */
    SlowdownDrainConfig drain;

    /**
     * Statically verify every iteration graph whose geometry is new —
     * the first build and each batch-size retarget — before running it
     * (src/verify; error findings are fatal). Read-only, so enabling it
     * is byte-identical to disabling it on a well-formed graph; on by
     * default in debug builds, opt-in (--verify on the sims) elsewhere.
     */
#ifndef NDEBUG
    bool verifyGraphs = true;
#else
    bool verifyGraphs = false;
#endif

    EngineConfig();
};

struct EngineResult
{
    ServingSummary summary;
    UtilizationTimeline timeline;
    int64_t iterations = 0;
    /**
     * Decode iterations by iteration-graph path: rearms at the armed
     * batch size, rearms that retargeted the batch size, and builds
     * (an engine builds once, on its first decode iteration).
     */
    uint64_t graphRearms = 0;
    uint64_t graphRetargets = 0;
    uint64_t graphRebuilds = 0;
};

/**
 * Analytic prefill cost of one prompt token across @p num_layers layers
 * (QKV + output projections and the top-K expert FFN; prompt attention
 * is projection-dominated and left out of the model). Shared by the
 * engine's prefill accounting and the cluster router's service-time
 * estimates.
 */
int64_t prefillFlopsPerToken(const ModelConfig& m, int64_t num_layers);

class ServingEngine
{
  public:
    ServingEngine(EngineConfig cfg, const Policy& policy);
    ~ServingEngine();

    /**
     * Serve @p reqs (mutated in place: states, TTFT/finish stamps) until
     * every request reaches a terminal state — Finished, Failed/Shed
     * under the fault tier, or Migrated when a slowdown drain hands the
     * request off for the cluster to reschedule. Deterministic for fixed (config, policy,
     * trace). Throws StallError (with a scheduler-state diagnostic)
     * when no admission progress is possible, e.g. a head-of-line
     * request that can never fit the KV budget with no admission policy
     * attached to shed it. Exactly begin(reqs), step(kNoEvent), finish().
     */
    EngineResult run(std::vector<Request>& reqs);

    // ---- the steppable run, for a coordinator pausing engines ----------
    /** Start a run over @p reqs (sorted by arrival), mutated in place
     *  until finish(): the batcher holds pointers, so keep the vector
     *  alive and unresized. */
    void begin(std::vector<Request>& reqs);
    /** Run to the first iteration boundary at or after @p until (or to
     *  completion) and deliver everything due there. Analytic prefill
     *  iterations and idle waits stop at @p until; decode may overshoot. */
    void step(dam::Cycle until);
    /** Add an incarnation arriving at r.arrival; one stamped behind the
     *  clock is delivered at the next boundary and keeps its stamp. */
    void inject(const Request& r);
    /**
     * Add a cluster-scope instant (breaker flip, autoscale step) to this
     * replica's trace. The engine emits each from its own loop when the
     * clock passes it — the sink is single-writer, so the coordinator
     * cannot append it itself — and wakes analytic prefill iterations on
     * it; one stamped behind the clock is emitted at the next boundary.
     */
    void postInstant(const ClusterInstant& ci);
    /**
     * While held open, step() runs to its @p until even once every known
     * request is terminal, delivering crashes and instants on the way:
     * a coordinator still feeding arrivals through inject() needs the
     * idle replica's clock and fault timeline to keep pace with it.
     */
    void holdOpen(bool open);
    /** Every request injected or begun so far is terminal. */
    bool allTerminal() const;
    /** Check the end-of-run invariants, append the injected incarnations
     *  to the begin() vector in injection order, and summarize it. */
    EngineResult finish();
    /** The run's requests: the begin() vector, then the injected ones. */
    size_t requestCount() const;
    const Request& request(size_t k) const;

    /**
     * Attach (or detach, with nullptr) a trace sink. run() then reports
     * request lifecycle instants and samples the engine's counters (views
     * of the metrics registry, a run-local one when none is attached)
     * each iteration, and — at level >= Op — forwards the iteration
     * graphs' scheduler events with the engine clock as time base. The
     * sink must outlive the engine's runs; with none attached the only
     * cost is one predicted branch per hook site.
     */
    void attachTrace(obs::TraceSink* sink) { trace_ = sink; }
    obs::TraceSink* trace() const { return trace_; }

    /**
     * Attach (or detach, with nullptr) a metrics registry. run() then
     * registers the engine's instrument set (TTFT/TPOT histograms,
     * per-iteration gauges, lifecycle event series — see README) and
     * records into it at iteration boundaries and request lifecycle
     * events, and fills the summary's windowed-SLO fields. Sampling
     * never influences control flow, so a metrics-on run is identical
     * to a metrics-off run in every other output byte; with none
     * attached the only cost is one predicted branch per hook site
     * (the hot path stays allocation-free).
     */
    void attachMetrics(obs::MetricsRegistry* m) { metrics_ = m; }
    obs::MetricsRegistry* metrics() const { return metrics_; }

  private:
    struct Run; ///< state of the run between begin() and finish()

    EngineConfig cfg_;
    const Policy& policy_;
    obs::TraceSink* trace_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
    /** Decoder-layer parameters of every iteration; a decode iteration
     *  sets batch, computeBwPerMatmul and cfg.moeMatmulBw. */
    DecoderParams iterParams_;
    int64_t decodeUnits_; ///< matmul pipelines sharing the decode bw
    dam::Scheduler sched_; ///< reused across per-iteration graphs
    /** Built on the first decode iteration, rearmed on every later one
     *  whatever the decode batch size. */
    IterationGraph iterGraph_;
    std::unique_ptr<Run> run_;
};

} // namespace step::runtime
