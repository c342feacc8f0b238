/**
 * @file
 * The STeP program graph: owns operators, channels, and the shared memory
 * resources (off-chip model + scratchpad), provides the builder API used
 * by workloads (the C++ analog of the symbolic Python frontend of
 * section 4.1), aggregates the symbolic metrics of section 4.2, and runs
 * the cycle-approximate simulation of section 4.3.
 */
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dam/scheduler.hh"
#include "mem/mem_model.hh"
#include "mem/scratchpad.hh"
#include "ops/common.hh"
#include "support/arena.hh"

namespace step {

namespace verify {
struct VerifyOptions;
struct VerifyReport;
} // namespace verify

/** Result of one simulation run. */
struct SimResult
{
    dam::Cycle cycles = 0;            ///< makespan over all contexts
    int64_t offChipBytes = 0;         ///< achieved off-chip traffic
    int64_t offChipReadBytes = 0;
    int64_t offChipWriteBytes = 0;
    int64_t onChipPeakBytes = 0;      ///< scratchpad + operator state peak
    int64_t totalFlops = 0;           ///< useful FLOPs executed
    int64_t allocatedComputeBw = 0;   ///< sum of per-op compute bandwidth
    uint64_t contextSwitches = 0;     ///< coroutine resumes during the run

    /** Fraction of allocated compute doing useful work. */
    double
    computeUtilization() const
    {
        if (!cycles || !allocatedComputeBw)
            return 0.0;
        return static_cast<double>(totalFlops) /
               (static_cast<double>(cycles) *
                static_cast<double>(allocatedComputeBw));
    }

    /** Fraction of off-chip bandwidth used, given bytes/cycle peak. */
    double
    offChipBwUtilization(int64_t peak_bytes_per_cycle) const
    {
        if (!cycles || !peak_bytes_per_cycle)
            return 0.0;
        return static_cast<double>(offChipBytes) /
               (static_cast<double>(cycles) *
                static_cast<double>(peak_bytes_per_cycle));
    }
};

class Graph
{
  public:
    /**
     * @param cfg   timing parameters
     * @param arena optional recycling backend. When set, operators are
     *              bump-allocated from it, channel names are interned in
     *              it, and recycle() rewinds the whole build; the arena
     *              must outlive the graph.
     */
    explicit Graph(SimConfig cfg = {}, GraphArena* arena = nullptr);
    ~Graph();

    Graph(const Graph&) = delete;
    Graph& operator=(const Graph&) = delete;

    const SimConfig& config() const { return cfg_; }

    /**
     * Test oracle switch: when set, the stream-view builders
     * (flattenView, chunkView, regroupView in ops/shape_ops.hh) build
     * their shape operators instead of folding into channels, so a
     * workload can be built both ways and compared. Off by default.
     */
    void setShapeOpChains(bool on) { shapeOpChains_ = on; }
    bool shapeOpChains() const { return shapeOpChains_; }

    /** Construct and register an operator. */
    template <typename OpT, typename... Args>
    OpT&
    add(Args&&... args)
    {
        OpT* op;
        if (arena_) {
            void* p = arena_->mem.allocate(sizeof(OpT), alignof(OpT));
            op = new (p) OpT(*this, std::forward<Args>(args)...);
        } else {
            op = new OpT(*this, std::forward<Args>(args)...);
        }
        ops_.push_back(op);
        return *op;
    }

    /** Create a channel owned by the graph. */
    dam::Channel& makeChannel(std::string_view name,
                              size_t capacity_override = 0);

    /**
     * Tear down the current build for reuse (arena-backed graphs only):
     * operator destructors run in reverse order, the arena rewinds,
     * channels return to a pool for reinit, and the memory models reset.
     * The next build bump-allocates through the retained blocks, reuses
     * pooled channel storage, and hits the interned name pool — so
     * steady-state rebuilds of a structurally stable graph stop paying
     * per-node heap allocation.
     */
    void recycle(const SimConfig& cfg);

    /**
     * Structure-preserving re-arm: keep every operator and channel of
     * the current build alive and reset only their run-time state
     * (clocks, coroutine frames, FIFO contents, measured metrics,
     * memory models), so the same graph can run again after its
     * per-iteration parameters are patched through OpBase::rearm().
     * This skips the ~190 operator constructors a recycle+rebuild pays
     * and is valid only while the operator set and channel wiring are
     * unchanged — callers key on a structural fingerprint (see
     * IterationGraph) and need a new build on mismatch.
     *
     * Channel depth is not structural: every channel created with the
     * config's default capacity takes @p cfg.channelCapacity, so a
     * graph can be rearmed for a different decode batch size. Channels
     * created with an explicit capacity keep it; their builder resizes
     * them (Channel::rearm) when that capacity is a payload too.
     * Channel latency stays structural.
     */
    void rearm(const SimConfig& cfg);

    /** Off-chip memory model (default: SimpleBwModel per SimConfig). */
    MemModel& memModel() { return *mem_; }
    void
    setMemModel(std::unique_ptr<MemModel> m)
    {
        mem_ = std::move(m);
        customMem_ = true;
    }

    Scratchpad& scratchpad() { return spad_; }

    /** Sum of per-operator off-chip traffic expressions (section 4.2). */
    sym::Expr offChipTrafficExpr() const;
    /** Sum of per-operator on-chip requirement expressions. */
    sym::Expr onChipMemExpr() const;

    /** Run the simulation; callable once per graph build. */
    [[nodiscard]] SimResult run();

    /**
     * Run the simulation on an externally owned scheduler (reset before
     * use). Lets a long-lived driver such as the serving engine reuse one
     * scheduler across many per-iteration graphs.
     */
    [[nodiscard]] SimResult run(dam::Scheduler& sched);

    /**
     * Statically analyze the current build without executing it
     * (structural well-formedness, shape/dtype flow through folded
     * channels, deadlock-freedom — see src/verify/verifier.hh). Read-only:
     * verification never changes simulation behavior or output bytes.
     */
    [[nodiscard]] verify::VerifyReport
    verify(const verify::VerifyOptions& opts) const;

    [[nodiscard]] const std::vector<OpBase*>& ops() const { return ops_; }

    /** Live channels of the current build, in creation order. */
    [[nodiscard]] const std::vector<dam::Channel*>&
    channels() const
    {
        return channels_;
    }

    /** Total tokens pushed across all channels (event count). */
    uint64_t totalChannelTokens() const;

  private:
    void destroyOps();

    SimConfig cfg_;
    GraphArena* arena_ = nullptr;
    std::vector<OpBase*> ops_;
    /** Live channels of the current build (owned via store/pool). */
    std::vector<dam::Channel*> channels_;
    /** Per live channel: created with cfg_.channelCapacity (no
     *  override), so rearm() re-sizes it with the config. */
    std::vector<bool> defaultCapacity_;
    std::vector<std::unique_ptr<dam::Channel>> channelStore_;
    std::vector<std::unique_ptr<dam::Channel>> channelPool_;
    std::unique_ptr<MemModel> mem_;
    bool customMem_ = false;
    Scratchpad spad_;
    bool ran_ = false;
    bool shapeOpChains_ = false;
};

} // namespace step
