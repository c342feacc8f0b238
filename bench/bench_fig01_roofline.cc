/**
 * @file
 * Regenerates Figure 1: effective HBM bandwidth of 8xH100 vs SN40L-8 /
 * SN40L-16 on Llama-3.1 8B/70B token generation, replayed through the
 * roofline model from the published fractions of peak [5, 19]. The
 * qualitative claim: GPUs use under half of peak HBM bandwidth on these
 * memory-bound workloads, the SDA a much larger fraction.
 */
#include <iostream>

#include "bench_common.hh"
#include "analysis/roofline.hh"
#include "support/table.hh"

using namespace step;

int
main()
{
    std::cout << "=== Figure 1: SDA vs GPU effective bandwidth (TB/s) "
                 "===\n\n";
    Table t({"Workload", "Platform", "PeakHBM(TB/s)", "FracOfPeak",
             "Effective(TB/s)"});
    bool gpu_under_half = true;
    bool sda_over_half = true;
    for (const auto& b : figure1Bars()) {
        t.row()
            .cell(b.workload)
            .cell(b.platform)
            .cellF(b.peakHbmTBs, 1)
            .cellF(b.fracOfPeak, 2)
            .cellF(b.effectiveTBs(), 2);
        if (b.platform == "8xH100")
            gpu_under_half &= b.fracOfPeak < 0.5;
        else
            sda_over_half &= b.fracOfPeak > 0.5;
    }
    t.print();
    std::cout << "\n";
    bench::check("GPU under half of peak on all workloads", gpu_under_half);
    bench::check("SDA above half of peak on all workloads", sda_over_half);
    return bench::checksExitCode();
}
