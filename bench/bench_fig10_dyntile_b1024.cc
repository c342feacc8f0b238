/**
 * @file
 * Regenerates Figure 10 (and the appendix's Figure 20 traffic columns):
 * the batch=1024 tiling sweep, where static tiling saturates at large
 * tiles while dynamic tiling reaches performance unattainable by any
 * static tile (paper PIDs 1.86x / 1.87x).
 */
#include "moe_sweep.hh"

using namespace step;
using namespace step::bench;

int
main()
{
    banner("Figure 10 / Figure 20: dynamic tiling, batch = 1024");
    bool ok = true;
    ok &= tilingSweep(mixtral8x7b(), 1024, {16, 64, 256, 1024}, 2003);
    ok &= tilingSweep(qwen3_30b_a3b(), 1024, {16, 64, 256, 1024}, 2011);
    check("dynamic tiling beyond both static frontiers (PID > 1)", ok);
    return checksExitCode();
}
