/**
 * @file
 * Fused Transformer decoder layer and end-to-end model runner
 * (section 5.5). Each layer is one STeP graph: QKV projection ->
 * attention (parallelized over regions) -> output projection -> MoE ->
 * off-chip store. The full model executes the layer graph repeatedly
 * with per-layer expert-routing traces, exactly the paper's "executed
 * repeatedly with layer-specific weights".
 */
#pragma once

#include <map>
#include <string_view>

#include "ops/graph.hh"
#include "workloads/attention.hh"
#include "workloads/moe.hh"

namespace step {

struct DecoderParams
{
    ModelConfig cfg;
    int64_t batch = 64;

    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 32;
    /** 0 = dedicated region per expert. */
    int64_t moeRegions = 0;

    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 4;
    int64_t kvTileRows = 32;

    int64_t denseTile = 32;
    int64_t weightTileCols = 64;
    int64_t computeBwPerMatmul = 1024;
    uint64_t seed = 42;
};

/** Aggregate result of an end-to-end (multi-layer) run. */
struct EndToEndResult
{
    dam::Cycle cycles = 0;          ///< summed over layers
    int64_t onChipPeakBytes = 0;    ///< max over layers (same hardware)
    int64_t allocatedComputeBw = 0; ///< max over layers
    int64_t offChipBytes = 0;       ///< summed
    int64_t totalFlops = 0;         ///< summed
};

struct DecoderRearmHandles;

/**
 * Dense projection block over a row stream: [B,1] of [1,in_cols] ->
 * [B,1] of [1,out_cols], with @p rows == B. Used for QKV and
 * attention-output projections. Rows are packed into tiles of
 * @p tile_rows (the last one padded), and the unpack emits only the
 * @p rows valid rows again. When @p rearm is non-null, the operators
 * billed against @p compute_bw (denseBwOps) and the B-limited unpack
 * (denseUnpackOps) are recorded for the rearm path.
 */
StreamPort buildDenseProj(Graph& g, const std::string& name,
                          StreamPort in_rows, int64_t rows,
                          int64_t in_cols, int64_t out_cols,
                          int64_t tile_rows, int64_t weight_tile_cols,
                          int64_t compute_bw, uint64_t weight_base_addr,
                          DecoderRearmHandles* rearm = nullptr);

/**
 * Structural fingerprint of a decoder-layer graph: everything that
 * determines the operator set and channel wiring, plus the batch size
 * the graph is currently armed with. KV lengths, expert traces, and
 * policy-assigned bandwidths are deliberately absent — they are
 * per-iteration state the rearm path patches in place. The batch size
 * B is a rearm payload too: the batch-long streams are built over one
 * shared symbolic dim, and sources, the dispatcher's total, and the
 * B-dependent channel depths are re-fed on every rearm. So a key that
 * differs only in `batch` retargets the armed graph in place; any other
 * field change (layer config, parallelization split) recycles and
 * rebuilds it.
 */
struct DecoderStructKey
{
    int64_t batch = 0;
    // ModelConfig geometry
    int64_t hidden = 0;
    int64_t moeIntermediate = 0;
    int64_t numExperts = 0;
    int64_t topK = 0;
    int64_t headDim = 0;
    int64_t numQHeads = 0;
    int64_t numKvHeads = 0;
    // Parallelization / tiling
    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 0;
    int64_t moeRegions = 0;
    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 0;
    int64_t kvTileRows = 0;
    int64_t denseTile = 0;
    int64_t weightTileCols = 0;
    uint64_t seed = 0;

    bool operator==(const DecoderStructKey&) const = default;
};

DecoderStructKey decoderStructKey(const DecoderParams& p, int64_t batch);

/**
 * Why a graph armed under @p armed cannot be rearmed for @p want: the
 * name of the first key field, other than `batch`, that differs (e.g.
 * "attnRegions"), or nullptr when a rearm — retargeting the batch size
 * if it changed — is valid.
 */
const char* rebuildReason(const DecoderStructKey& armed,
                          const DecoderStructKey& want);

/**
 * The SimConfig a serving iteration at @p batch runs under (channel
 * capacity scales with the batch). Exported so benches and tests build
 * exactly the graph the engine runs; a rearm for @p batch re-sizes the
 * armed graph's channels to it.
 */
SimConfig iterationSimConfig(int64_t batch);

/**
 * Typed handles to the per-iteration operators of a built decoder-layer
 * graph plus the structural key it is armed with. Owned by whoever runs
 * the graph (e.g. the serving engine) and refreshed by buildDecoderLayer
 * on every full rebuild; runDecoderIteration uses them to take the
 * structure-preserving rearm fast path whenever rebuildReason() allows
 * it, whatever the batch size.
 */
struct DecoderRearmHandles
{
    bool valid = false;
    DecoderStructKey key;
    SourceOp* layerIn = nullptr;
    /** (op, divisor): rearmed bw = p.computeBwPerMatmul / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> denseBwOps;
    /** Dense-projection unpacks whose data limit is the batch size. */
    std::vector<OpBase*> denseUnpackOps;
    AttnRearmHandles attn;
    MoeRearmHandles moe;
    // Path counters (observability for benches and tests).
    uint64_t rearms = 0;    ///< rearms at the armed batch size
    uint64_t retargets = 0; ///< rearms that changed the batch size
    uint64_t rebuilds = 0;  ///< full (recycle +) rebuilds
    /** Rebuilds by miss reason: the rebuildReason() field, or
     *  "initial" for the first build. */
    std::map<std::string_view, uint64_t> rebuildReasons;
};

/**
 * Build one decoder layer into @p g; returns the layer-output stream
 * ([B] of [1,H] rows) already routed into a LinearOffChipStore, so the
 * run's makespan covers "first off-chip read to last off-chip write".
 * When @p rearm is non-null its handles are reset and repopulated for
 * the new build (key/valid/counters are managed by the caller).
 */
void buildDecoderLayer(Graph& g, const DecoderParams& p,
                       const ExpertTrace& trace,
                       const std::vector<int64_t>& kv_lens,
                       DecoderRearmHandles* rearm = nullptr);


/**
 * One serving iteration: a single decoder-layer pass over the *current*
 * dynamic batch composition. The serving runtime calls this once per
 * continuous-batching iteration with the batch's per-request context
 * lengths and a per-iteration expert-routing trace, instead of building
 * one whole-run graph up front — that is what lets request-level
 * dynamism (variable KV lengths, variable batch size, variable expert
 * load) reach the hardware model.
 */
struct IterationSpec
{
    /** Per-request KV context length for this iteration's batch. */
    std::vector<int64_t> kvLens;
    /** Expert routing for this iteration's tokens (size == batch). */
    ExpertTrace trace;
};

/**
 * Structure-preserving re-arm of a previously built decoder-layer
 * graph: Graph::rearm plus per-operator patches for the iteration's
 * batch size, KV lengths, expert trace, and bandwidths, after which
 * h.key.batch is the new batch size. Valid whenever
 * rebuildReason(h.key, decoderStructKey(p, B)) is null; metrics are
 * bit-identical to a cold build with the same (p, spec). Exposed
 * separately from runDecoderIteration so benches can time the rearm
 * cost alone.
 */
void rearmDecoderLayer(Graph& g, DecoderRearmHandles& h,
                       const DecoderParams& p, const IterationSpec& spec);

/**
 * Build and simulate one decoder-layer iteration. When @p sched is
 * non-null the externally owned scheduler is reused (reset + run), so a
 * long-lived engine pays no scheduler setup per iteration. When
 * @p reuse is non-null it must be an arena-backed Graph owned by the
 * caller: the previous build is recycled in place and the new iteration
 * graph reuses its operator storage, pooled channels, and interned
 * names (see Graph::recycle). When @p rearm is also non-null, the
 * rebuild is skipped whenever rebuildReason() allows it: the armed
 * graph is patched in place (rearmDecoderLayer) — the fast path the
 * serving engine runs on. The decode batch size is a rearm payload, so
 * a batch change retargets the graph instead of rebuilding it; only a
 * change of another key field recycles and rebuilds, refreshing the
 * handles. A serving engine therefore builds its graph once per run.
 *
 * When @p vopts is non-null every fresh build — the cold path and the
 * rearm structural-key fallback — and every retarget (its channel
 * depths changed) is statically verified (Graph::verify) before it
 * runs; a same-batch rearm keeps the verified geometry and is not. An
 * error-severity finding raises FatalError with the rendered report.
 * Verification is read-only, so a clean verified run is byte-identical
 * to an unverified one.
 */
SimResult runDecoderIteration(const DecoderParams& p,
                              const IterationSpec& spec,
                              dam::Scheduler* sched = nullptr,
                              Graph* reuse = nullptr,
                              DecoderRearmHandles* rearm = nullptr,
                              const verify::VerifyOptions* vopts = nullptr);

/** Run @p layers decoder layers (fresh graph each) and aggregate. */
EndToEndResult runEndToEnd(const DecoderParams& p, int64_t layers,
                           uint64_t trace_seed);

} // namespace step
