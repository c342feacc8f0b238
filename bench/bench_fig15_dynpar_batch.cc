/**
 * @file
 * Regenerates Figure 15 (section 5.4): static coarse-grained vs dynamic
 * parallelization across batch sizes with the coarse block sized for
 * batch 64 (16 requests per region). Paper shape: dynamic wins big at
 * small batch (2.72x at batch=16, where coarse leaves regions idle) and
 * stays ahead at batch=64 (1.43x) due to load imbalance.
 */
#include <iostream>

#include "bench_common.hh"
#include "support/rng.hh"

using namespace step;
using namespace step::bench;

int
main(int argc, char** argv)
{
    uint64_t seed = seedFromArgsOrEnv(argc, argv);
    banner("Figure 15: coarse-grained vs dynamic parallelization across "
           "batch sizes");
    std::cout << "base seed: " << seed << "\n";
    ModelConfig cfg = qwen3_30b_a3b();
    Table t({"Batch", "Coarse cycles", "Dynamic cycles", "Speedup"});
    double speedup16 = 0.0, speedup64 = 0.0;
    for (int64_t batch : {16, 32, 48, 64}) {
        auto lens = sampleKvBatch(deriveSeed(15), batch, KvVarClass::Med);
        // Coarse block fixed at 16 (sized for batch=64, as in the
        // paper's implementation).
        std::vector<uint32_t> assign;
        for (int64_t i = 0; i < batch; ++i)
            assign.push_back(static_cast<uint32_t>(
                std::min<int64_t>(i / 16, 3)));
        SimResult coarse = runAttention(cfg, lens,
                                        ParStrategy::StaticCoarse, 4,
                                        &assign);
        SimResult dyn = runAttention(cfg, lens, ParStrategy::Dynamic, 4);
        double speedup = static_cast<double>(coarse.cycles) /
                         static_cast<double>(dyn.cycles);
        t.row()
            .cell(batch)
            .cell(coarse.cycles)
            .cell(dyn.cycles)
            .cellF(speedup, 3);
        if (batch == 16)
            speedup16 = speedup;
        if (batch == 64)
            speedup64 = speedup;
    }
    t.print();
    std::cout << "\nspeedup at batch=16: " << speedup16
              << "x (paper: 2.72x); at batch=64: " << speedup64
              << "x (paper: 1.43x)\n";
    bool ok = speedup16 > 1.5 && speedup64 > 1.0 &&
              speedup16 > speedup64;
    check("dynamic >> coarse at small batch, still ahead at full batch",
          ok);
    return checksExitCode();
}
