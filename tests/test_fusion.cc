/**
 * @file
 * SimResult oracle of the shape-op fusion: the workload builders fold
 * Flatten, identity Repeat and innermost Reshape into channels (stream
 * views, ops/shape_ops.hh); Graph::setShapeOpChains builds the same
 * graphs with those operators instead. Both must agree on every
 * SimResult field but contextSwitches — the one the fusion exists to
 * cut — except for a bounded makespan delta. The off-chip port model
 * (SimpleBwModel) serves requests in execution order, and a graph with
 * fewer contexts interleaves its off-chip requests differently, so the
 * makespan moves a little under the dynamic attention strategy the
 * serving engine uses and more under the static ones, whose regions
 * contend for the port in long bursts. With an off-chip model whose
 * accesses never contend, that interleaving stops mattering and the
 * makespans agree to a few cycles under every strategy. The fused
 * graph must also verify clean and rearm/retarget bit-identically to a
 * cold build.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/rng.hh"
#include "verify/verifier.hh"
#include "workloads/attention.hh"
#include "workloads/decoder.hh"
#include "workloads/moe.hh"

namespace step {
namespace {

/** The serving engine's decoder configuration (EngineConfig). */
DecoderParams
servingParams(ParStrategy attn)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.attnStrategy = attn;
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    return p;
}

IterationSpec
specFor(const DecoderParams& p, int64_t batch, uint64_t seed)
{
    IterationSpec spec;
    Rng rng(seed * 9176 + static_cast<uint64_t>(batch));
    spec.trace = generateExpertTrace(rng, batch, p.cfg.numExperts,
                                     p.cfg.topK);
    spec.kvLens = sampleKvBatch(seed + static_cast<uint64_t>(batch), batch,
                                KvVarClass::Med);
    return spec;
}

/** Every field but cycles and contextSwitches must match exactly. */
void
expectSameWork(const SimResult& fused, const SimResult& chains,
               const std::string& what)
{
    EXPECT_EQ(fused.offChipBytes, chains.offChipBytes) << what;
    EXPECT_EQ(fused.offChipReadBytes, chains.offChipReadBytes) << what;
    EXPECT_EQ(fused.offChipWriteBytes, chains.offChipWriteBytes) << what;
    EXPECT_EQ(fused.onChipPeakBytes, chains.onChipPeakBytes) << what;
    EXPECT_EQ(fused.totalFlops, chains.totalFlops) << what;
    EXPECT_EQ(fused.allocatedComputeBw, chains.allocatedComputeBw) << what;
    EXPECT_LT(fused.contextSwitches, chains.contextSwitches) << what;
}

/** |fused - chains| <= bound * chains on the makespan. */
void
expectCyclesWithin(const SimResult& fused, const SimResult& chains,
                   double bound, const std::string& what)
{
    const double delta = static_cast<double>(fused.cycles) -
                         static_cast<double>(chains.cycles);
    EXPECT_LE(std::abs(delta), bound * static_cast<double>(chains.cycles))
        << what << ": fused " << fused.cycles << " vs operator chains "
        << chains.cycles;
}

/**
 * Off-chip model without a shared port: every access completes after
 * its own transfer and latency, whatever else is in flight, so the
 * order in which operators issue accesses cannot change any timing.
 */
class ContentionFreeMem : public MemModel
{
  public:
    dam::Cycle
    access(uint64_t, int64_t bytes, dam::Cycle issue, bool is_write) override
    {
        const dam::Cycle done =
            issue + static_cast<dam::Cycle>((bytes + 1023) / 1024) + 64;
        stats_.record(bytes, is_write, issue, done);
        return done;
    }
};

SimResult
runDecoder(const DecoderParams& p, const IterationSpec& spec, bool chains,
           bool contention_free = false)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    Graph g(iterationSimConfig(B));
    g.setShapeOpChains(chains);
    if (contention_free)
        g.setMemModel(std::make_unique<ContentionFreeMem>());
    buildDecoderLayer(g, p, spec.trace, spec.kvLens);
    const verify::VerifyReport report = g.verify(verify::VerifyOptions{});
    EXPECT_TRUE(report.clean()) << report.toText();
    return g.run();
}

struct DecoderCase
{
    ParStrategy strategy;
    /** Makespan bound relative to the operator-chain build. */
    double bound;
};

class FusedDecoder : public ::testing::TestWithParam<DecoderCase> {};

TEST_P(FusedDecoder, MatchesOperatorChains)
{
    const DecoderCase c = GetParam();
    for (int64_t B : {1, 5, 16, 64}) {
        for (uint64_t seed : {1u, 2u}) {
            DecoderParams p = servingParams(c.strategy);
            p.batch = B;
            const IterationSpec spec = specFor(p, B, seed);
            const std::string what = "B=" + std::to_string(B) +
                                     " seed=" + std::to_string(seed);
            const SimResult fused = runDecoder(p, spec, false);
            const SimResult chains = runDecoder(p, spec, true);
            expectSameWork(fused, chains, what);
            expectCyclesWithin(fused, chains, c.bound, what);
        }
    }
}

TEST_P(FusedDecoder, MatchesOperatorChainsWithoutPortContention)
{
    const DecoderCase c = GetParam();
    for (int64_t B : {1, 5, 16, 64}) {
        for (uint64_t seed : {1u, 2u}) {
            DecoderParams p = servingParams(c.strategy);
            p.batch = B;
            const IterationSpec spec = specFor(p, B, seed);
            const std::string what = "B=" + std::to_string(B) +
                                     " seed=" + std::to_string(seed);
            const SimResult fused = runDecoder(p, spec, false, true);
            const SimResult chains = runDecoder(p, spec, true, true);
            expectSameWork(fused, chains, what);
            EXPECT_LE(std::abs(static_cast<int64_t>(fused.cycles) -
                               static_cast<int64_t>(chains.cycles)),
                      16)
                << what << ": fused " << fused.cycles
                << " vs operator chains " << chains.cycles;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, FusedDecoder,
    ::testing::Values(DecoderCase{ParStrategy::Dynamic, 0.01},
                      DecoderCase{ParStrategy::StaticInterleaved, 0.10},
                      DecoderCase{ParStrategy::StaticCoarse, 0.10}),
    [](const ::testing::TestParamInfo<DecoderCase>& info) {
        switch (info.param.strategy) {
        case ParStrategy::Dynamic:
            return std::string("Dynamic");
        case ParStrategy::StaticInterleaved:
            return std::string("StaticInterleaved");
        case ParStrategy::StaticCoarse:
            return std::string("StaticCoarse");
        }
        return std::string("Unknown");
    });

TEST(Fusion, StandaloneAttentionMatchesOperatorChains)
{
    const auto kv = sampleKvBatch(7, 32, KvVarClass::High);
    for (ParStrategy s : {ParStrategy::StaticInterleaved,
                          ParStrategy::StaticCoarse, ParStrategy::Dynamic}) {
        SimResult r[2];
        for (int chains = 0; chains < 2; ++chains) {
            AttnParams ap;
            ap.cfg = servingSimConfig();
            ap.batch = 32;
            ap.strategy = s;
            SimConfig sc;
            sc.channelCapacity = 64;
            Graph g(sc);
            g.setShapeOpChains(chains);
            AttnBuild ab = buildAttentionLayer(g, ap, kv);
            g.add<SinkOp>("out", ab.out);
            EXPECT_TRUE(g.verify(verify::VerifyOptions{}).clean());
            r[chains] = g.run();
        }
        const std::string what = "strategy " +
                                 std::to_string(static_cast<int>(s));
        expectSameWork(r[0], r[1], what);
        expectCyclesWithin(r[0], r[1], 0.01, what);
    }
}

TEST(Fusion, StandaloneMoeMatchesOperatorChains)
{
    for (Tiling tiling : {Tiling::Static, Tiling::Dynamic}) {
        for (int64_t regions : {0, 2}) {
            SimResult r[2];
            for (int chains = 0; chains < 2; ++chains) {
                MoeParams mp;
                mp.cfg = servingSimConfig();
                mp.batch = 48;
                mp.tiling = tiling;
                mp.parallelRegions = regions;
                mp.tileRows = 16;
                Rng rng(99);
                const ExpertTrace trace = generateExpertTrace(
                    rng, 48, mp.cfg.numExperts, mp.cfg.topK);
                SimConfig sc;
                sc.channelCapacity = 80;
                Graph g(sc);
                g.setShapeOpChains(chains);
                MoeBuild mb = buildMoeLayer(g, mp, trace);
                g.add<SinkOp>("out", mb.out);
                EXPECT_TRUE(g.verify(verify::VerifyOptions{}).clean());
                r[chains] = g.run();
            }
            const std::string what =
                "tiling " + std::to_string(static_cast<int>(tiling)) +
                " regions " + std::to_string(regions);
            expectSameWork(r[0], r[1], what);
            expectCyclesWithin(r[0], r[1], 0.01, what);
        }
    }
}

/**
 * A viewed push can leave several FIFO entries behind for one credit:
 * with FIFOs down to one slot the producer must still block and resume
 * correctly, and the consumer see the operator chain's exact tokens.
 */
TEST(Fusion, ViewsDeliverUnderOneSlotBackpressure)
{
    const int64_t rows = 7;
    for (size_t capacity : {1u, 2u, 3u}) {
        std::vector<std::string> got[2];
        for (int chains = 0; chains < 2; ++chains) {
            SimConfig sc;
            sc.channelCapacity = capacity;
            Graph g(sc);
            g.setShapeOpChains(chains);
            std::vector<Token> toks;
            for (int64_t i = 0; i < rows; ++i)
                toks.push_back(Token::data(Tile(1, 4)));
            toks.push_back(Token::done());
            auto& src = g.add<SourceOp>("src", std::move(toks),
                                        StreamShape({Dim::fixed(rows)}),
                                        DataType::tile(1, 4));
            StreamPort p = regroupView(g, "group", src.out(), 3,
                                       Value(Tile(1, 4)));
            p = flattenView(g, "flat", p, 0, 1);
            p = chunkView(g, "chunk", p);
            auto& sink = g.add<SinkOp>("sink", p, true);
            (void)g.run();
            for (const Token& t : sink.tokens())
                got[chains].push_back(t.isData() ? "x" : t.toString());
        }
        // 7 rows padded to 9, regrouped, flattened back, one per group.
        std::vector<std::string> expect;
        for (int i = 0; i < 9; ++i) {
            expect.push_back("x");
            expect.push_back("S1");
        }
        expect.push_back("D");
        EXPECT_EQ(got[0], expect) << "capacity " << capacity;
        EXPECT_EQ(got[1], expect) << "capacity " << capacity;
    }
}

/**
 * The folded channels carry run state (regroup counts, stage clocks,
 * held stops): a rearm, and a retarget to another batch size, must
 * reset it so the fused graph reruns bit-identically to a cold build.
 */
TEST(Fusion, RearmAndRetargetEqualColdFusedBuild)
{
    const DecoderParams base = servingParams(ParStrategy::Dynamic);
    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles handles;
    const int64_t batches[] = {5, 5, 16, 1, 64, 16, 16};
    for (size_t i = 0; i < std::size(batches); ++i) {
        DecoderParams p = base;
        p.batch = batches[i];
        const IterationSpec spec = specFor(p, batches[i], 10 + i);
        const SimResult armed =
            runDecoderIteration(p, spec, &sched, &g, &handles);
        const SimResult cold = runDecoderIteration(p, spec, &sched);
        const std::string what = "iteration " + std::to_string(i);
        EXPECT_EQ(armed.cycles, cold.cycles) << what;
        EXPECT_EQ(armed.contextSwitches, cold.contextSwitches) << what;
        EXPECT_EQ(armed.offChipBytes, cold.offChipBytes) << what;
        EXPECT_EQ(armed.totalFlops, cold.totalFlops) << what;
        EXPECT_EQ(armed.onChipPeakBytes, cold.onChipPeakBytes) << what;
        EXPECT_EQ(armed.allocatedComputeBw, cold.allocatedComputeBw)
            << what;
        EXPECT_TRUE(g.verify(verify::VerifyOptions{}).clean()) << what;
    }
    EXPECT_EQ(handles.rebuilds, 1u);
    EXPECT_EQ(handles.retargets, 4u);
}

} // namespace
} // namespace step
