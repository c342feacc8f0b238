/**
 * @file
 * Regenerates Figure 12 (section 5.3): compute utilization and cycles of
 * the Qwen3-30B-A3B MoE layer as experts are time-multiplexed onto
 * fewer configured regions, for static (tile=32) and dynamic tiling.
 * Paper shape: utilization rises ~2.5-2.6x as regions shrink, with small
 * cycle overhead; dynamic tiling shows lower utilization than static
 * because static padding inflates FLOPs (3.81x more total FLOPs there).
 */
#include <iostream>

#include "bench_common.hh"

using namespace step;
using namespace step::bench;

int
main()
{
    banner("Figure 12: configuration time-multiplexing, Qwen3-30B-A3B "
           "MoE (batch=64)");
    ModelConfig cfg = qwen3_30b_a3b();
    ExpertTrace trace = representativeExpertTrace(3001, 64,
                                                  cfg.numExperts,
                                                  cfg.topK);
    const std::vector<int64_t> regions{128, 64, 32, 16, 8, 4};

    bool util_rises_static = true;
    bool util_rises_dynamic = true;
    double first_util_s = 0.0, last_util_s = 0.0;
    dam::Cycle base_cycles_s = 0;
    double worst_overhead_s = 0.0;
    int64_t static_flops = 0, dynamic_flops = 0;

    for (Tiling tiling : {Tiling::Static, Tiling::Dynamic}) {
        const char* label = tiling == Tiling::Static ? "static tile=32"
                                                     : "dynamic";
        std::cout << "-- " << label << " --\n";
        Table t({"Regions(ExpertsPer)", "Cycles", "ComputeUtil(%)",
                 "AllocComp(KFLOP/cyc)"});
        double prev_util = 0.0;
        for (size_t i = 0; i < regions.size(); ++i) {
            SimResult r = runMoe(cfg, 64, tiling, 32, regions[i], trace);
            double util = 100.0 * r.computeUtilization();
            t.row()
                .cell(std::to_string(regions[i]) + " (" +
                      std::to_string(128 / regions[i]) + ")")
                .cell(r.cycles)
                .cellF(util, 2)
                .cellF(static_cast<double>(r.allocatedComputeBw) / 1e3,
                       1);
            if (tiling == Tiling::Static) {
                if (i == 0) {
                    first_util_s = util;
                    base_cycles_s = r.cycles;
                }
                last_util_s = util;
                worst_overhead_s = std::max(
                    worst_overhead_s,
                    static_cast<double>(r.cycles) /
                        static_cast<double>(base_cycles_s) - 1.0);
                static_flops = r.totalFlops;
                if (i > 0 && util < prev_util * 0.95)
                    util_rises_static = false;
            } else {
                dynamic_flops = r.totalFlops;
                if (i > 0 && util < prev_util * 0.95)
                    util_rises_dynamic = false;
            }
            prev_util = util;
        }
        t.print();
        std::cout << "\n";
    }

    double util_gain = last_util_s / first_util_s;
    double flop_ratio = static_cast<double>(static_flops) /
                        static_cast<double>(dynamic_flops);
    std::cout << "static-tiling utilization gain 128 -> 4 regions: "
              << util_gain << "x (paper: ~2.64x)\n";
    std::cout << "worst static cycle overhead vs dedicated: "
              << 100.0 * worst_overhead_s << "%\n";
    std::cout << "static/dynamic FLOP ratio (padding waste): "
              << flop_ratio << "x (paper: 3.81x)\n";
    bool ok = util_gain > 1.5 && util_rises_static && util_rises_dynamic
              && flop_ratio > 1.5;
    check("utilization rises as regions shrink and static pads FLOPs",
          ok);
    return checksExitCode();
}
