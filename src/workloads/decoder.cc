#include "workloads/decoder.hh"

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"
#include "verify/verifier.hh"

namespace step {

namespace {

std::string
nm(const std::string& base, const std::string& suffix)
{
    return base + "." + suffix;
}

/**
 * The one symbolic dimension every batch-long stream of the layer is
 * declared over. Port shapes then hold for any batch size, which is
 * what lets a rearm retarget the batch instead of rebuilding.
 */
Dim
batchDim()
{
    return Dim::dynamicExpr(sym::Expr::sym("B"));
}

/** Attention sub-layer parameters derived from the decoder's (build and
 *  rearm must agree exactly). */
AttnParams
attnParamsFor(const DecoderParams& p, int64_t batch)
{
    AttnParams ap;
    ap.cfg = p.cfg;
    ap.batch = batch;
    ap.batchDim = batchDim();
    ap.strategy = p.attnStrategy;
    ap.regions = p.attnRegions;
    ap.kvTileRows = p.kvTileRows;
    ap.computeBw = p.computeBwPerMatmul;
    ap.coarseBlock = std::max<int64_t>(1, batch / p.attnRegions);
    ap.seed = p.seed;
    return ap;
}

/** MoE sub-layer parameters derived from the decoder's. */
MoeParams
moeParamsFor(const DecoderParams& p, int64_t batch)
{
    MoeParams mp;
    mp.cfg = p.cfg;
    mp.batch = batch;
    mp.batchDim = batchDim();
    mp.tiling = p.moeTiling;
    mp.tileRows = p.moeTile;
    mp.weightTileCols = p.weightTileCols;
    mp.computeBwPerMatmul = p.cfg.moeMatmulBw;
    mp.parallelRegions = p.moeRegions;
    mp.seed = p.seed;
    return mp;
}

} // namespace

SimConfig
iterationSimConfig(int64_t batch)
{
    SimConfig sc;
    sc.channelCapacity = static_cast<size_t>(batch) + 32;
    return sc;
}

DecoderStructKey
decoderStructKey(const DecoderParams& p, int64_t batch)
{
    DecoderStructKey k;
    k.batch = batch;
    k.hidden = p.cfg.hidden;
    k.moeIntermediate = p.cfg.moeIntermediate;
    k.numExperts = p.cfg.numExperts;
    k.topK = p.cfg.topK;
    k.headDim = p.cfg.headDim;
    k.numQHeads = p.cfg.numQHeads;
    k.numKvHeads = p.cfg.numKvHeads;
    k.moeTiling = p.moeTiling;
    k.moeTile = p.moeTile;
    k.moeRegions = p.moeRegions;
    k.attnStrategy = p.attnStrategy;
    k.attnRegions = p.attnRegions;
    k.kvTileRows = p.kvTileRows;
    k.denseTile = p.denseTile;
    k.weightTileCols = p.weightTileCols;
    k.seed = p.seed;
    return k;
}

StreamPort
buildDenseProj(Graph& g, const std::string& name, StreamPort in_rows,
               int64_t rows, int64_t in_cols, int64_t out_cols,
               int64_t tile_rows, int64_t weight_tile_cols,
               int64_t compute_bw, uint64_t weight_base_addr,
               DecoderRearmHandles* rearm)
{
    const int64_t Tc = weight_tile_cols;
    STEP_ASSERT(out_cols % Tc == 0, "dense out_cols must divide by tile");
    const int64_t n_cols = out_cols / Tc;
    auto record_bw = [&](OpBase& op, int64_t divisor) {
        if (rearm)
            rearm->denseBwOps.emplace_back(&op, divisor);
    };

    StreamPort flat =
        flattenView(g, nm(name, "flat"), std::move(in_rows), 0, 1);
    StreamPort grouped = regroupView(g, nm(name, "reshape"), flat,
                                     tile_rows, Value(Tile(1, in_cols)));
    auto& pk = g.add<AccumOp>(nm(name, "pack"), grouped, 1,
                              fns::retileRowInit(in_cols),
                              fns::retileRowUpdate(), compute_bw / 4,
                              DataType::tile(tile_rows, in_cols));
    record_bw(pk, 4);
    auto& pbc = g.add<BroadcastOp>(nm(name, "pbc"), pk.out(), 2);

    OffChipTensor wt = OffChipTensor::shapeOnly(weight_base_addr, in_cols,
                                                out_cols, in_cols, Tc);
    auto& ld = g.add<LinearOffChipLoadOp>(
        nm(name, "wload"), pbc.out(1), wt, std::array<int64_t, 2>{n_cols,
                                                                  1},
        std::array<int64_t, 2>{1, n_cols});
    StreamPort wfl = flattenView(g, nm(name, "wflat"), ld.out(), 0, 1);
    auto& rep = g.add<RepeatOp>(nm(name, "rep"), pbc.out(0), n_cols);
    auto& mm = g.add<MapOp>(
        nm(name, "mm"), std::vector<StreamPort>{rep.out(), wfl},
        fns::matmul(), compute_bw, DataType::tile(tile_rows, Tc));
    mm.setMatmulMemSpec(1);
    record_bw(mm, 1);
    auto& pc = g.add<AccumOp>(nm(name, "packcol"), mm.out(), 1,
                              fns::retileColInit(0), fns::retileColUpdate(),
                              compute_bw / 4,
                              DataType::tile(tile_rows, out_cols));
    record_bw(pc, 4);
    // The row count is known (B, a rearm payload), so the unpack drops
    // the padded tail rows itself instead of filtering them against a
    // per-row pad-flag stream.
    auto& fm = g.add<FlatMapOp>(nm(name, "unpack"), pc.out(),
                                fns::retileStreamify(1),
                                StreamShape({Dim::ragged()}),
                                DataType::tile(1, out_cols));
    fm.setDataLimit(rows);
    if (rearm)
        rearm->denseUnpackOps.push_back(&fm);
    StreamPort out_rows = flattenView(g, nm(name, "rows"), fm.out(), 0, 1);
    return chunkView(g, nm(name, "chunk"), out_rows);
}

void
buildDecoderLayer(Graph& g, const DecoderParams& p,
                  const ExpertTrace& trace,
                  const std::vector<int64_t>& kv_lens,
                  DecoderRearmHandles* rearm)
{
    const int64_t H = p.cfg.hidden;
    const int64_t d = p.cfg.numKvHeads * p.cfg.headDim;
    const int64_t qkv_cols =
        p.cfg.numQHeads * p.cfg.headDim + 2 * d;
    const auto B = static_cast<int64_t>(kv_lens.size());
    STEP_ASSERT(static_cast<int64_t>(trace.perToken.size()) == B,
                "trace/kv batch mismatch");
    if (rearm) {
        // Drop handles from any previous build; the caller manages the
        // key, validity, and path counters around this call.
        rearm->layerIn = nullptr;
        rearm->denseBwOps.clear();
        rearm->denseUnpackOps.clear();
        rearm->attn = AttnRearmHandles{};
        rearm->moe = MoeRearmHandles{};
    }

    // Layer input activations.
    auto& in_src = g.add<SourceOp>(
        "layer.in", rowStreamTokens(B, H),
        StreamShape({batchDim(), Dim::fixed(1)}), DataType::tile(1, H));
    if (rearm)
        rearm->layerIn = &in_src;

    // Weight address space above the MoE/KV regions.
    const uint64_t wbase = uint64_t{1} << 40;

    // ---- QKV projection ---------------------------------------------
    StreamPort qkv = buildDenseProj(g, "qkv", in_src.out(), B, H, qkv_cols,
                                    p.denseTile, p.weightTileCols,
                                    p.computeBwPerMatmul, wbase, rearm);
    // Slice out the q head group (timing: emits a [1,d] row per token).
    MapFn slice_q = [d](const std::vector<Value>& a, int64_t&) -> Value {
        (void)a;
        return Tile(1, d);
    };
    StreamPort qflat = flattenView(g, "qkv.sliceflat", qkv, 0, 1);
    auto& qrows = g.add<MapOp>("qkv.sliceq", std::vector<StreamPort>{qflat},
                               slice_q, 0, DataType::tile(1, d));

    // ---- attention -----------------------------------------------------
    AttnParams ap = attnParamsFor(p, B);
    StreamPort qport = chunkView(g, "qkv.qchunk", qrows.out());
    AttnBuild ab = buildAttentionLayer(g, ap, kv_lens, nullptr, nullptr,
                                       nullptr, &qport,
                                       rearm ? &rearm->attn : nullptr);
    // [B, 1, 1] -> [B, 1] rows of [1,d].
    StreamPort aflat = flattenView(g, "attn.outflat", ab.out, 0, 1);

    // ---- output projection back to H ---------------------------------
    StreamPort oproj = buildDenseProj(
        g, "oproj", aflat, B, d, H, p.denseTile, p.weightTileCols,
        p.computeBwPerMatmul, wbase + (uint64_t{1} << 36), rearm);

    // ---- MoE FFN -------------------------------------------------------
    MoeParams mp = moeParamsFor(p, B);
    MoeBuild mb = buildMoeLayer(g, mp, trace, nullptr, &oproj,
                                rearm ? &rearm->moe : nullptr);

    // ---- store the layer output ----------------------------------------
    g.add<LinearOffChipStoreOp>("layer.store", mb.out,
                                uint64_t{1} << 44);
}

void
rearmDecoderLayer(Graph& g, DecoderRearmHandles& h,
                  const DecoderParams& p, const IterationSpec& spec)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    STEP_ASSERT(h.valid && decoderStructKey(p, h.key.batch) == h.key,
                "rearmDecoderLayer structural key mismatch: build a new "
                "graph instead");
    STEP_ASSERT(static_cast<int64_t>(spec.trace.perToken.size()) == B,
                "trace/kv batch mismatch");
    g.rearm(iterationSimConfig(B));

    std::vector<Token> in_toks = rowStreamTokens(B, p.cfg.hidden);
    RearmSpec s;
    s.tokens = &in_toks;
    h.layerIn->rearm(s);

    for (const auto& [op, div] : h.denseBwOps) {
        RearmSpec bs;
        bs.computeBw = p.computeBwPerMatmul / div;
        op->rearm(bs);
    }
    RearmSpec rows;
    rows.count = B;
    for (OpBase* op : h.denseUnpackOps)
        op->rearm(rows);
    rearmAttentionLayer(h.attn, attnParamsFor(p, B), spec.kvLens);
    rearmMoeLayer(h.moe, moeParamsFor(p, B), spec.trace);
    h.key.batch = B;
}

namespace {

/** Verify a freshly built iteration graph; fatal on error findings. */
void
verifyIterationGraph(const Graph& g, const verify::VerifyOptions& opts)
{
    verify::VerifyReport report = g.verify(opts);
    if (report.errors() > 0)
        stepFatal("decoder iteration graph failed static verification:\n"
                  << report.toText());
}

} // namespace

SimResult
runDecoderIteration(const DecoderParams& p, const IterationSpec& spec,
                    dam::Scheduler* sched)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    STEP_ASSERT(B > 0, "decoder iteration over an empty batch");
    Graph g(iterationSimConfig(B));
    buildDecoderLayer(g, p, spec.trace, spec.kvLens);
    if (sched)
        return g.run(*sched);
    return g.run();
}

IterationGraph::IterationGraph(const DecoderParams& structure)
    : graph_(SimConfig{}, &arena_)
{
    h_.key = decoderStructKey(structure, 0);
}

void
IterationGraph::arm(const DecoderParams& p, const IterationSpec& spec,
                    const verify::VerifyOptions* vopts)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    STEP_ASSERT(B > 0, "decoder iteration over an empty batch");
    STEP_ASSERT(decoderStructKey(p, h_.key.batch) == h_.key,
                "IterationGraph asked for another layer structure: "
                "construct a new IterationGraph instead");
    bool fresh_geometry = true;
    if (!h_.valid) {
        graph_.recycle(iterationSimConfig(B));
        buildDecoderLayer(graph_, p, spec.trace, spec.kvLens, &h_);
        h_.key.batch = B;
        h_.valid = true;
        ++builds_;
    } else {
        // Patch the armed graph in place instead of re-running ~190
        // operator constructors, retargeting it when the batch size
        // changed. A same-batch rearm keeps the verified geometry; a
        // retarget changed channel depths, so it is verified again.
        fresh_geometry = h_.key.batch != B;
        ++(fresh_geometry ? retargets_ : rearms_);
        rearmDecoderLayer(graph_, h_, p, spec);
    }
    if (fresh_geometry && vopts)
        verifyIterationGraph(graph_, *vopts);
}

SimResult
IterationGraph::run(const DecoderParams& p, const IterationSpec& spec,
                    dam::Scheduler& sched,
                    const verify::VerifyOptions* vopts)
{
    arm(p, spec, vopts);
    return graph_.run(sched);
}

} // namespace step
