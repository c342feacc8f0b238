/**
 * @file
 * Regenerates Figure 17 (section 5.5): end-to-end decoder stacks for
 * Qwen3-30B-A3B and Mixtral-8x7B under three configurations:
 *
 *  - static (mem-matched):  static MoE tiling with the tile whose
 *    on-chip memory is closest to dynamic tiling's, static interleaved
 *    attention;
 *  - static (perf-matched): static tile with the closest latency;
 *  - dynamic: dynamic tiling + dynamic parallelization (+ configuration
 *    time-multiplexing for Qwen, whose 128-expert pool benefits; the
 *    paper skips time-multiplexing for Mixtral since all 8 experts are
 *    active at batch 64).
 *
 * Matched tiles are derived from this build's own batch-64 sweep — the
 * same methodology the paper uses ("the same closest points along each
 * axis, from Figure 9"). A subset of layers is simulated (the decoder
 * layers are homogeneous up to trace variation); ratios are unaffected.
 */
#include <iostream>

#include "bench_common.hh"
#include "workloads/decoder.hh"

using namespace step;
using namespace step::bench;

namespace {

struct Matched
{
    int64_t memTile;
    int64_t perfTile;
};

Matched
matchedTiles(const ModelConfig& cfg, uint64_t seed)
{
    ExpertTrace trace = representativeExpertTrace(seed, 64,
                                                  cfg.numExperts,
                                                  cfg.topK);
    SimResult dyn = runMoe(cfg, 64, Tiling::Dynamic, 0, 0, trace);
    Matched m{8, 8};
    double best_mem = 1e300, best_perf = 1e300;
    for (int64_t tile : {8, 16, 32, 64}) {
        SimResult r = runMoe(cfg, 64, Tiling::Static, tile, 0, trace);
        double dm = std::abs(static_cast<double>(r.onChipPeakBytes) -
                             static_cast<double>(dyn.onChipPeakBytes));
        double dp = std::abs(static_cast<double>(r.cycles) -
                             static_cast<double>(dyn.cycles));
        if (dm < best_mem) {
            best_mem = dm;
            m.memTile = tile;
        }
        if (dp < best_perf) {
            best_perf = dp;
            m.perfTile = tile;
        }
    }
    return m;
}

EndToEndResult
runConfig(const ModelConfig& cfg, Tiling tiling, int64_t tile,
          int64_t moe_regions, ParStrategy attn, int64_t layers,
          uint64_t seed)
{
    DecoderParams p;
    p.cfg = cfg;
    p.batch = 64;
    p.moeTiling = tiling;
    p.moeTile = tile;
    p.moeRegions = moe_regions;
    p.attnStrategy = attn;
    p.seed = seed;
    return runEndToEnd(p, layers, seed);
}

} // namespace

int
main()
{
    banner("Figure 17: end-to-end decoder stacks (batch=64)");
    const int64_t layers = 6; // homogeneous layers; ratios unaffected
    bool ok = true;
    for (const ModelConfig& cfg : {mixtral8x7b(), qwen3_30b_a3b()}) {
        bool qwen = cfg.numExperts >= 64;
        Matched m = matchedTiles(cfg, 5001);
        std::cout << cfg.name << ": mem-matched tile=" << m.memTile
                  << ", perf-matched tile=" << m.perfTile
                  << (qwen ? ", dynamic uses 16 time-muxed regions"
                           : ", no time-multiplexing (all experts "
                             "active)")
                  << "\n";

        EndToEndResult mem_m = runConfig(
            cfg, Tiling::Static, m.memTile, 0,
            ParStrategy::StaticInterleaved, layers, 6001);
        EndToEndResult perf_m = runConfig(
            cfg, Tiling::Static, m.perfTile, 0,
            ParStrategy::StaticInterleaved, layers, 6001);
        EndToEndResult dyn = runConfig(
            cfg, Tiling::Dynamic, 0, qwen ? 16 : 0, ParStrategy::Dynamic,
            layers, 6001);

        Table t({"Config", "Cycles", "OnChipMem(MB)",
                 "AllocComp(KFLOP/cyc)"});
        auto row = [&](const char* name, const EndToEndResult& r) {
            t.row()
                .cell(name)
                .cell(r.cycles)
                .cellF(static_cast<double>(r.onChipPeakBytes) / 1e6, 2)
                .cellF(static_cast<double>(r.allocatedComputeBw) / 1e3,
                       1);
        };
        row("static (mem-matched)", mem_m);
        row("static (perf-matched)", perf_m);
        row("dynamic", dyn);
        t.print();

        double speedup_mem = static_cast<double>(mem_m.cycles) /
                             static_cast<double>(dyn.cycles);
        double speedup_perf = static_cast<double>(perf_m.cycles) /
                              static_cast<double>(dyn.cycles);
        double mem_save = 1.0 -
            static_cast<double>(dyn.onChipPeakBytes) /
                static_cast<double>(perf_m.onChipPeakBytes);
        std::cout << "speedup vs mem-matched: " << speedup_mem
                  << "x (paper: " << (qwen ? "1.15x" : "1.27x")
                  << "); vs perf-matched: " << speedup_perf
                  << "x; on-chip memory saved vs perf-matched: "
                  << 100.0 * mem_save << "% (paper: "
                  << (qwen ? "88%" : "20%") << ")\n\n";
        ok &= speedup_mem > 1.0 && speedup_perf >= 0.95 &&
              mem_save > 0.0;
    }
    check("dynamic faster than mem-matched static with less memory than "
          "perf-matched static",
          ok);
    return checksExitCode();
}
