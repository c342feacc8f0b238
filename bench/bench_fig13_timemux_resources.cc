/**
 * @file
 * Regenerates Figure 13 (section 5.3): resource usage of the
 * time-multiplexed Qwen MoE layer (tile=32, batch=64) across region
 * counts — cycles, on-chip memory, allocated compute, and off-chip
 * bandwidth utilization. Paper shape: comparable performance with ~62%
 * less allocated compute and ~46% less memory; the utilization drop at
 * few regions traces to falling off-chip bandwidth utilization.
 */
#include <iostream>

#include "bench_common.hh"

using namespace step;
using namespace step::bench;

int
main()
{
    banner("Figure 13: time-multiplexing resource usage, Qwen3-30B-A3B "
           "MoE (tile=32, batch=64)");
    ModelConfig cfg = qwen3_30b_a3b();
    ExpertTrace trace = representativeExpertTrace(3001, 64,
                                                  cfg.numExperts,
                                                  cfg.topK);
    SimConfig def;
    const int64_t offchip_bw = def.offChipBwBytesPerCycle;

    Table t({"Regions(ExpertsPer)", "Cycles", "OnChipMem(KB)",
             "AllocComp(KFLOP/cyc)", "OffChipBwUtil(%)"});
    int64_t mem128 = 0, mem_best = 0;
    int64_t comp128 = 0, comp_best = 0;
    dam::Cycle cyc128 = 0;
    bool comparable_perf = false;
    for (int64_t regions : {int64_t{128}, int64_t{64}, int64_t{32},
                            int64_t{16}, int64_t{8}, int64_t{4}}) {
        SimResult r = runMoe(cfg, 64, Tiling::Static, 32, regions, trace);
        t.row()
            .cell(std::to_string(regions) + " (" +
                  std::to_string(128 / regions) + ")")
            .cell(r.cycles)
            .cellF(static_cast<double>(r.onChipPeakBytes) / 1e3, 1)
            .cellF(static_cast<double>(r.allocatedComputeBw) / 1e3, 1)
            .cellF(100.0 * r.offChipBwUtilization(offchip_bw), 1);
        if (regions == 128) {
            mem128 = r.onChipPeakBytes;
            comp128 = r.allocatedComputeBw;
            cyc128 = r.cycles;
        }
        // Paper highlights the 16-region point: comparable performance
        // with large resource savings.
        if (regions == 16) {
            mem_best = r.onChipPeakBytes;
            comp_best = r.allocatedComputeBw;
            comparable_perf = r.cycles <
                static_cast<dam::Cycle>(1.25 *
                                        static_cast<double>(cyc128));
        }
    }
    t.print();

    double comp_saving = 1.0 - static_cast<double>(comp_best) /
                                   static_cast<double>(comp128);
    double mem_saving = 1.0 - static_cast<double>(mem_best) /
                                  static_cast<double>(mem128);
    std::cout << "\nat 16 regions vs dedicated: compute saved "
              << 100.0 * comp_saving << "% (paper: 62%), memory saved "
              << 100.0 * mem_saving << "% (paper: 46%)\n";
    bool ok = comp_saving > 0.3 && mem_saving > 0.2 && comparable_perf;
    check("large compute+memory savings at comparable performance", ok);
    return checksExitCode();
}
