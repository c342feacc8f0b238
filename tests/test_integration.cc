/**
 * @file
 * Cross-module integration tests: Pareto/PID math, the landscape
 * registry, the Figure-8 validation substrate, the fused decoder layer,
 * determinism of full workload simulations, and failure injection
 * (misaligned streams, selector/input length mismatches).
 */
#include <gtest/gtest.h>

#include "analysis/landscape.hh"
#include "analysis/pareto.hh"
#include "hdlref/swiglu.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"
#include "support/stats.hh"
#include "workloads/decoder.hh"

#include "helpers.hh"

namespace step {
namespace {

TEST(Pareto, FrontierRemovesDominated)
{
    std::vector<DesignPoint> pts{
        {10, 10, "a"}, {5, 20, "b"}, {20, 5, "c"}, {12, 12, "d"},
    };
    auto f = paretoFrontier(pts);
    ASSERT_EQ(f.size(), 3u);
    for (const auto& p : f)
        EXPECT_NE(p.label, "d");
}

TEST(Pareto, PidAboveOneBeyondFrontier)
{
    std::vector<DesignPoint> base{{10, 10, "a"}, {5, 20, "b"}};
    // Dominates "a" on both axes by 2x.
    EXPECT_DOUBLE_EQ(paretoImprovementDistance({5, 5, "p"}, base), 2.0);
    // On the frontier.
    EXPECT_DOUBLE_EQ(paretoImprovementDistance({10, 10, "p"}, base), 1.0);
    // Dominated.
    EXPECT_LT(paretoImprovementDistance({40, 40, "p"}, base), 1.0);
}

TEST(Pareto, PidUsesWorstObjectivePerBaselinePoint)
{
    std::vector<DesignPoint> base{{10, 10, "a"}};
    // p trades memory for speed; the inner max selects the objective the
    // baseline would find hardest to match (equation 2): the baseline
    // must improve cycles 2x to match p, so PID = 2.
    double pid = paretoImprovementDistance({5, 40, "p"}, base);
    EXPECT_DOUBLE_EQ(pid, 2.0);
    // A point worse on both axes is dominated: PID < 1.
    EXPECT_LT(paretoImprovementDistance({20, 40, "q"}, base), 1.0);
}

TEST(Landscape, OnlyStepExpressesEverything)
{
    auto profiles = landscapeProfiles();
    auto opts = optimizationSpecs();
    for (const auto& p : profiles) {
        bool all = true;
        for (const auto& o : opts)
            all &= canExpress(p, o);
        EXPECT_EQ(all, p.name == "STeP") << p.name;
    }
}

TEST(Landscape, RippleExpressesDynamicParallelizationOnly)
{
    auto profiles = landscapeProfiles();
    auto opts = optimizationSpecs();
    const auto& ripple = *std::find_if(
        profiles.begin(), profiles.end(),
        [](const auto& p) { return p.name == "Ripple"; });
    EXPECT_FALSE(canExpress(ripple, opts[0])); // dynamic tiling
    EXPECT_FALSE(canExpress(ripple, opts[1])); // time-multiplexing
    EXPECT_TRUE(canExpress(ripple, opts[2]));  // dynamic parallelization
}

TEST(SwigluValidation, TrafficMatchesAnalyticInBothModels)
{
    SwigluConfig c;
    c.batchTile = 32;
    c.interTile = 64;
    SwigluResult hdl = simulateSwigluHdl(c);
    SwigluResult stp = simulateSwigluStep(c);
    int64_t analytic = swigluTrafficBytes(c);
    EXPECT_EQ(hdl.offChipBytes, analytic);
    EXPECT_EQ(stp.offChipBytes, analytic);
    EXPECT_GT(hdl.cycles, 0u);
    EXPECT_GT(stp.cycles, 0u);
}

TEST(SwigluValidation, BothModelsOrderTileSizesConsistently)
{
    // Larger batch tiles cut weight traffic; both simulators must order
    // the design points the same way (the essence of Figure 8).
    auto run = [](int64_t bt) {
        SwigluConfig c;
        c.batchTile = bt;
        c.interTile = 64;
        return std::pair<dam::Cycle, dam::Cycle>(
            simulateSwigluHdl(c).cycles, simulateSwigluStep(c).cycles);
    };
    auto [h16, s16] = run(16);
    auto [h64, s64] = run(64);
    EXPECT_GT(h16, h64);
    EXPECT_GT(s16, s64);
}

/** A tiny decoder layer, small enough to simulate in milliseconds. */
DecoderParams
tinyDecoder()
{
    DecoderParams p;
    p.cfg = tinyConfig();
    p.cfg.hidden = 32;
    p.cfg.moeIntermediate = 32;
    p.cfg.headDim = 16;
    p.cfg.numKvHeads = 1;
    p.cfg.numQHeads = 2;
    p.batch = 12;
    p.moeTile = 4;
    p.denseTile = 4;
    p.weightTileCols = 8;
    p.kvTileRows = 4;
    p.attnRegions = 2;
    return p;
}

/** Layer @p l's inputs in a seeded decoder stack, drawn as
 *  bench_fig17_end2end draws them. */
IterationSpec
layerSpec(const DecoderParams& p, uint64_t seed, int64_t l)
{
    Rng rng(seed * 1000003 + static_cast<uint64_t>(l));
    IterationSpec spec;
    spec.trace = generateExpertTrace(rng, p.batch, p.cfg.numExperts,
                                     p.cfg.topK);
    spec.kvLens = sampleKvBatch(seed + static_cast<uint64_t>(l), p.batch,
                                KvVarClass::Med);
    return spec;
}

TEST(Decoder, TinyLayerRunsAllStrategyCombos)
{
    for (ParStrategy attn : {ParStrategy::StaticInterleaved,
                             ParStrategy::Dynamic}) {
        for (Tiling moe : {Tiling::Static, Tiling::Dynamic}) {
            DecoderParams p = tinyDecoder();
            p.moeTiling = moe;
            p.attnStrategy = attn;
            SimResult r = runDecoderIteration(p, layerSpec(p, 11, 0));
            EXPECT_GT(r.cycles, 0u);
            EXPECT_GT(r.offChipBytes, 0);
            EXPECT_GT(r.totalFlops, 0);
        }
    }
}

TEST(Decoder, DeterministicAcrossRuns)
{
    DecoderParams p = tinyDecoder();
    p.attnStrategy = ParStrategy::Dynamic;
    for (int64_t l = 0; l < 2; ++l) {
        SimResult a = runDecoderIteration(p, layerSpec(p, 3, l));
        SimResult b = runDecoderIteration(p, layerSpec(p, 3, l));
        EXPECT_EQ(a.cycles, b.cycles) << "layer " << l;
        EXPECT_EQ(a.offChipBytes, b.offChipBytes) << "layer " << l;
        EXPECT_EQ(a.totalFlops, b.totalFlops) << "layer " << l;
    }
}

TEST(FailureInjection, ZipRejectsMisalignedStreams)
{
    Graph g;
    auto ta = encodeNested(test::vec({1, 2}), 1);
    auto tb = encodeNested(test::list({test::vec({1, 2})}), 2);
    auto& a = g.add<SourceOp>("a", ta, StreamShape::fixed({2}),
                              test::scalarTile());
    auto& b = g.add<SourceOp>("b", tb, StreamShape::fixed({1, 2}),
                              test::scalarTile());
    EXPECT_THROW(g.add<ZipOp>(
                     "z", std::vector<StreamPort>{a.out(), b.out()}),
                 PanicError);
}

TEST(FailureInjection, PartitionSelectorLongerThanInput)
{
    Graph g;
    Nested n = test::list({test::vec({1})});
    auto& in = g.add<SourceOp>("in", encodeNested(n, 2),
                               StreamShape::fixed({1, 1}),
                               test::scalarTile());
    std::vector<Token> sels{Token::data(Selector::oneHot(0)),
                            Token::data(Selector::oneHot(0)),
                            Token::done()};
    auto& sel = g.add<SourceOp>("sel", sels, StreamShape::fixed({2}),
                                DataType::selector(1));
    auto& part = g.add<PartitionOp>("p", in.out(), sel.out(), 1, 1);
    g.add<SinkOp>("s", part.out(0));
    EXPECT_THROW((void)g.run(), PanicError);
}

TEST(FailureInjection, GraphRunTwiceRejected)
{
    Graph g;
    auto& src = g.add<SourceOp>("src",
                                std::vector<Token>{Token::done()},
                                StreamShape({Dim::ragged()}),
                                test::scalarTile());
    g.add<SinkOp>("sink", src.out());
    (void)g.run();
    EXPECT_THROW((void)g.run(), PanicError);
}

TEST(Metrics, MoeSymbolicOnChipTracksTileSize)
{
    // The symbolic on-chip expression must grow with the static tile.
    auto on_chip = [](int64_t tile) {
        MoeParams p;
        p.cfg = tinyConfig();
        p.cfg.hidden = 32;
        p.cfg.moeIntermediate = 32;
        p.cfg.numExperts = 4;
        p.cfg.topK = 2;
        p.batch = 16;
        p.weightTileCols = 8;
        p.tileRows = tile;
        Rng rng(2);
        ExpertTrace tr = generateExpertTrace(rng, p.batch,
                                             p.cfg.numExperts,
                                             p.cfg.topK);
        SimConfig sc;
        sc.channelCapacity = 64;
        Graph g(sc);
        buildMoeLayer(g, p, tr);
        return g.onChipMemExpr().eval({});
    };
    EXPECT_LT(on_chip(2), on_chip(8));
}

} // namespace
} // namespace step
