/**
 * @file
 * Regenerates Figure 9 (and the appendix's Figure 19 traffic columns):
 * performance and memory of static-vs-dynamic tiling of the MoE batch
 * dimension at batch=64, for Mixtral-8x7B and Qwen3-30B-A3B. The paper's
 * qualitative result: dynamic tiling breaks the static Pareto frontier
 * (PID 1.33x / 2.11x on their testbed).
 */
#include "moe_sweep.hh"

using namespace step;
using namespace step::bench;

int
main()
{
    banner("Figure 9 / Figure 19: dynamic tiling, batch = 64");
    bool ok = true;
    ok &= tilingSweep(mixtral8x7b(), 64, {8, 16, 32, 64}, 1009);
    ok &= tilingSweep(qwen3_30b_a3b(), 64, {8, 16, 32, 64}, 1013);
    check("dynamic tiling beyond both static frontiers (PID > 1)", ok);
    return checksExitCode();
}
