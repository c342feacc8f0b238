/**
 * @file
 * Correctness of the structure-preserving rearm path: over a hundred-
 * plus serving iterations with seeded per-iteration KV lengths, expert
 * traces, and policy bandwidths, an IterationGraph must produce
 * metrics bit-identical to (a) recycle+rebuild on a reused graph and
 * (b) a cold graph built from scratch. The decode batch size is a
 * rearm payload: mid-run batch-size changes retarget the armed graph
 * in place (no rebuild), with the same bit-identity, the same verifier
 * report as a cold build, and no allocation once warm. A change of
 * another structural key field is refused: it needs a new
 * IterationGraph.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hh"
#include "support/error.hh"
#include "support/framepool.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/decoder.hh"

namespace step {
namespace {

DecoderParams
baseParams(ParStrategy attn)
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
specFor(const DecoderParams& p, uint64_t seed, int64_t batch)
{
    IterationSpec spec;
    Rng rng(seed * 9176 + 13);
    spec.trace = generateExpertTrace(rng, batch, p.cfg.numExperts,
                                     p.cfg.topK);
    spec.kvLens = sampleKvBatch(seed, batch, KvVarClass::Med);
    return spec;
}

void
expectIdentical(const SimResult& a, const SimResult& b, int64_t iter,
                const char* what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what << " iter " << iter;
    EXPECT_EQ(a.offChipBytes, b.offChipBytes) << what << " iter " << iter;
    EXPECT_EQ(a.offChipReadBytes, b.offChipReadBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.offChipWriteBytes, b.offChipWriteBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.onChipPeakBytes, b.onChipPeakBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.totalFlops, b.totalFlops) << what << " iter " << iter;
    EXPECT_EQ(a.allocatedComputeBw, b.allocatedComputeBw)
        << what << " iter " << iter;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches)
        << what << " iter " << iter;
}

void
runComparison(ParStrategy attn)
{
    const int64_t kIters = 120;
    dam::Scheduler sched;

    IterationGraph armed(baseParams(attn));

    GraphArena rebuild_arena;
    Graph rebuild_graph(SimConfig{}, &rebuild_arena);

    for (int64_t i = 0; i < kIters; ++i) {
        // Two batch changes (4 -> 6 -> 4) plus a per-iteration
        // bandwidth wobble standing in for policy splits.
        const int64_t B = (i >= 40 && i < 80) ? 6 : 4;
        DecoderParams p = baseParams(attn);
        p.batch = B;
        p.computeBwPerMatmul = 512 + 128 * (i % 3);
        p.cfg.moeMatmulBw = p.computeBwPerMatmul;
        IterationSpec spec =
            specFor(p, 1000 + static_cast<uint64_t>(i), B);

        SimResult via_rearm = armed.run(p, spec, sched);
        SimResult via_rebuild =
            test::recycledIteration(rebuild_graph, p, spec, sched);
        SimResult cold = runDecoderIteration(p, spec, &sched);

        expectIdentical(via_rearm, via_rebuild, i, "rearm vs rebuild");
        expectIdentical(via_rearm, cold, i, "rearm vs cold");
        if (::testing::Test::HasFailure())
            break;
    }

    // One build; both batch changes (4 -> 6 -> 4) retarget, and
    // everything else is a same-batch rearm.
    EXPECT_EQ(armed.builds(), 1u);
    EXPECT_EQ(armed.rearms() + armed.retargets(),
              static_cast<uint64_t>(kIters) - 1u);
    EXPECT_EQ(armed.retargets(), 2u);
}

TEST(Rearm, BitIdenticalStaticAttention)
{
    runComparison(ParStrategy::StaticInterleaved);
}

TEST(Rearm, BitIdenticalDynamicAttention)
{
    runComparison(ParStrategy::Dynamic);
}

/**
 * Seeded batch-size sequence in [1, 64]: a first stretch drawn from
 * [1, 32], then a jump to 64 (growth past every earlier maximum), a
 * drop to 1, and a stretch drawn from the whole range.
 */
std::vector<int64_t>
varyingBatches(uint64_t seed, int64_t iters)
{
    Rng rng(seed);
    std::vector<int64_t> bs;
    for (int64_t i = 0; i < iters; ++i) {
        if (i == iters / 2)
            bs.push_back(64);
        else if (i == iters / 2 + 1)
            bs.push_back(1);
        else
            bs.push_back(rng.uniformRange(1, i < iters / 2 ? 32 : 64));
    }
    return bs;
}

void
runVaryingBatch(ParStrategy attn, uint64_t seed)
{
    const int64_t kIters = 24;
    const std::vector<int64_t> batches = varyingBatches(seed, kIters);
    dam::Scheduler sched;

    IterationGraph armed(baseParams(attn));

    GraphArena rebuild_arena;
    Graph rebuild_graph(SimConfig{}, &rebuild_arena);

    uint64_t batch_changes = 0;
    bool grew_past_max = false;
    bool shrank_to_one = false;
    int64_t max_b = 0;
    for (int64_t i = 0; i < kIters; ++i) {
        const int64_t B = batches[static_cast<size_t>(i)];
        if (i > 0 && B != batches[static_cast<size_t>(i) - 1]) {
            ++batch_changes;
            grew_past_max |= B > max_b;
            shrank_to_one |= B == 1;
        }
        max_b = std::max(max_b, B);

        DecoderParams p = baseParams(attn);
        p.batch = B;
        p.computeBwPerMatmul = 256 + 128 * (i % 5);
        p.cfg.moeMatmulBw = p.computeBwPerMatmul;
        IterationSpec spec =
            specFor(p, seed * 100 + static_cast<uint64_t>(i), B);

        SimResult via_rearm = armed.run(p, spec, sched);
        SimResult via_rebuild =
            test::recycledIteration(rebuild_graph, p, spec, sched);
        SimResult cold = runDecoderIteration(p, spec, &sched);

        expectIdentical(via_rearm, via_rebuild, i, "rearm vs rebuild");
        expectIdentical(via_rearm, cold, i, "rearm vs cold");
        EXPECT_EQ(armed.batch(), B) << "iter " << i;
        if (::testing::Test::HasFailure())
            return;
    }

    EXPECT_TRUE(grew_past_max);
    EXPECT_TRUE(shrank_to_one);
    EXPECT_EQ(armed.builds(), 1u);
    EXPECT_EQ(armed.retargets(), batch_changes);
    EXPECT_EQ(armed.rearms() + armed.retargets(),
              static_cast<uint64_t>(kIters) - 1u);
}

TEST(Rearm, VaryingBatchStaticInterleaved)
{
    runVaryingBatch(ParStrategy::StaticInterleaved, 71);
}

TEST(Rearm, VaryingBatchStaticCoarse)
{
    runVaryingBatch(ParStrategy::StaticCoarse, 72);
}

TEST(Rearm, VaryingBatchDynamic)
{
    runVaryingBatch(ParStrategy::Dynamic, 73);
}

TEST(Rearm, StructuralChangeOnLiveGraphPanics)
{
    dam::Scheduler sched;
    DecoderParams p = baseParams(ParStrategy::Dynamic);
    IterationGraph ig(p);
    (void)ig.run(p, specFor(p, 1, 4), sched);
    // A batch change alone retargets...
    (void)ig.run(p, specFor(p, 2, 9), sched);
    EXPECT_EQ(ig.builds(), 1u);
    EXPECT_EQ(ig.retargets(), 1u);
    // ...a parallelization change is no rearm payload: the live graph
    // refuses it, even with a batch change riding along, and stays
    // armed as it was.
    DecoderParams q = p;
    q.attnRegions = 2;
    EXPECT_THROW((void)ig.run(q, specFor(q, 3, 5), sched), PanicError);
    EXPECT_EQ(ig.builds(), 1u);
    EXPECT_EQ(ig.retargets(), 1u);
    EXPECT_EQ(ig.batch(), 9);
    // The structure is fixed at construction, before the first build.
    IterationGraph unbuilt(p);
    EXPECT_THROW((void)unbuilt.run(q, specFor(q, 3, 5), sched),
                 PanicError);
    EXPECT_EQ(unbuilt.builds(), 0u);
}

TEST(Rearm, FreshGraphForNewStructureMatchesCold)
{
    // The caller that wants another structure constructs a new graph;
    // it builds once and retargets like any other.
    dam::Scheduler sched;
    DecoderParams p = baseParams(ParStrategy::Dynamic);
    p.attnRegions = 2;
    IterationGraph ig(p);
    const int64_t batches[] = {5, 9, 5};
    for (size_t i = 0; i < std::size(batches); ++i) {
        const IterationSpec spec = specFor(p, 3 + i, batches[i]);
        expectIdentical(ig.run(p, spec, sched),
                        runDecoderIteration(p, spec),
                        static_cast<int64_t>(i), "fresh graph vs cold");
    }
    EXPECT_EQ(ig.builds(), 1u);
    EXPECT_EQ(ig.retargets(), 2u);
}

/** (name, capacity) of every channel of @p g, in creation order. */
std::vector<std::pair<std::string, size_t>>
channelGeometry(const Graph& g)
{
    std::vector<std::pair<std::string, size_t>> geo;
    for (const dam::Channel* ch : g.channels())
        geo.emplace_back(ch->name(), ch->capacity());
    return geo;
}

TEST(Rearm, RetargetedGraphVerifiesLikeColdBuild)
{
    const verify::VerifyOptions vopts{};
    for (ParStrategy attn : {ParStrategy::StaticInterleaved,
                             ParStrategy::StaticCoarse,
                             ParStrategy::Dynamic}) {
        dam::Scheduler sched;
        DecoderParams p = baseParams(attn);
        IterationGraph ig(p);
        const Graph& g = ig.graph();
        // Verified build, then verified retargets (growth past the
        // build's batch, a shrink to 1, a regrowth).
        (void)ig.run(p, specFor(p, 5, 4), sched, &vopts);
        for (int64_t B : {23, 1, 8}) {
            IterationSpec spec = specFor(p, 6 + static_cast<uint64_t>(B),
                                         B);
            (void)ig.run(p, spec, sched, &vopts);
            Graph cold(iterationSimConfig(B));
            buildDecoderLayer(cold, p, spec.trace, spec.kvLens);
            EXPECT_EQ(g.verify(vopts).toJson(), cold.verify(vopts).toJson())
                << "B " << B;
            EXPECT_EQ(channelGeometry(g), channelGeometry(cold))
                << "B " << B;
        }
        EXPECT_EQ(ig.builds(), 1u);
        EXPECT_EQ(ig.retargets(), 3u);
    }
}

TEST(Rearm, RepeatedRearmWithoutRunIsIdempotent)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 7, 4);

    dam::Scheduler sched;
    IterationGraph ig(p);
    SimResult first = ig.run(p, spec, sched);

    // Benches time the rearm in a loop without running the graph in
    // between; the extra rearms must not perturb the next run.
    for (int i = 0; i < 5; ++i)
        ig.arm(p, spec);
    SimResult again = ig.run(p, spec, sched);
    expectIdentical(first, again, 0, "after repeated rearm");
}

TEST(Rearm, FramePoolRecyclesFrames)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 11, 4);

    dam::Scheduler sched;
    IterationGraph ig(p);
    (void)ig.run(p, spec, sched); // builds all frames

    FramePool::Stats before = FramePool::stats();
    (void)ig.run(p, spec, sched);
    FramePool::Stats after = FramePool::stats();
    // A steady-state iteration allocates every coroutine frame from the
    // pool's freelists, not the heap.
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
}

/** Entry + credit ring slots allocated across @p g's channels. */
size_t
ringSlots(const Graph& g)
{
    size_t n = 0;
    for (const dam::Channel* ch : g.channels())
        n += ch->ringSlots();
    return n;
}

TEST(Rearm, BatchSweepAllocatesNothingOnceWarm)
{
    DecoderParams p = baseParams(ParStrategy::Dynamic);
    const std::vector<int64_t> sweep = {4, 5, 6, 4, 17, 1, 32, 9, 32, 2};

    dam::Scheduler sched;
    IterationGraph ig(p);
    const Graph& g = ig.graph();
    auto run_sweep = [&] {
        for (size_t i = 0; i < sweep.size(); ++i)
            (void)ig.run(p, specFor(p, 40 + i, sweep[i]), sched);
    };
    run_sweep(); // warms frames and rings up to the sweep's maximum B

    const FramePool::Stats before = FramePool::stats();
    const size_t slots_before = ringSlots(g);
    run_sweep();
    const FramePool::Stats after = FramePool::stats();
    // Every later retarget draws its coroutine frames from the pool and
    // runs within the ring storage the warm sweep grew.
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(ringSlots(g), slots_before);
    EXPECT_EQ(ig.builds(), 1u);
    EXPECT_EQ(ig.retargets(), 2 * sweep.size() - 1);
}

} // namespace
} // namespace step
