/**
 * @file
 * Regenerates Figure 8 (section 4.5): cycle counts and off-chip traffic
 * of a SwiGLU layer across 15 tile configurations, comparing the
 * cycle-approximate STeP simulator against the cycle-level reference
 * ("HDL") model, with the Pearson correlation the paper reports (0.99 on
 * their testbed; the pass bar here is r > 0.9).
 */
#include <iostream>

#include "bench_common.hh"
#include "hdlref/swiglu.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace step;

int
main()
{
    std::cout << "=== Figure 8: STeP simulator vs cycle-level reference, "
                 "SwiGLU (batch=64, hidden=256, inter=512) ===\n\n";
    Table t({"TileSize(B,H,I)", "HDL cycles", "STeP cycles", "ratio",
             "traffic MB (both)", "traffic match"});
    std::vector<double> hdl_cycles;
    std::vector<double> step_cycles;
    bool traffic_ok = true;
    for (int64_t bt : {16, 32, 64}) {
        for (int64_t it : {16, 32, 64, 128, 256}) {
            SwigluConfig c;
            c.batchTile = bt;
            c.interTile = it;
            SwigluResult hdl = simulateSwigluHdl(c);
            SwigluResult stp = simulateSwigluStep(c);
            int64_t analytic = swigluTrafficBytes(c);
            bool match = hdl.offChipBytes == analytic &&
                         stp.offChipBytes == analytic;
            traffic_ok &= match;
            hdl_cycles.push_back(static_cast<double>(hdl.cycles));
            step_cycles.push_back(static_cast<double>(stp.cycles));
            t.row()
                .cell("(" + std::to_string(bt) + ",256," +
                      std::to_string(it) + ")")
                .cell(hdl.cycles)
                .cell(stp.cycles)
                .cellF(static_cast<double>(stp.cycles) /
                           static_cast<double>(hdl.cycles), 3)
                .cellF(static_cast<double>(analytic) / 1e6, 3)
                .cell(match ? "yes" : "MISMATCH");
        }
    }
    t.print();

    double r = pearson(hdl_cycles, step_cycles);
    std::cout << "\nPearson correlation (cycles): " << r << "\n";
    bench::check("correlation > 0.9 (paper: 0.99)", r > 0.9);
    bench::check("symbolic/measured off-chip traffic identical in both "
          "simulators",
          traffic_ok);
    return bench::checksExitCode();
}
