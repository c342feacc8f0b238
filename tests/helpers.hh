/**
 * @file
 * Shared test helpers: compact constructors for value tokens, a
 * one-operator harness that runs Source -> Op -> Sink and returns the
 * captured output stream, a call-counting serving policy, and the
 * decoder-iteration oracles: a recycle + rebuild run and a cold replay
 * of every decode iteration an engine ran.
 */
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/codec.hh"
#include "core/token.hh"
#include "ops/graph.hh"
#include "ops/source_sink.hh"
#include "runtime/engine.hh"
#include "runtime/policy.hh"
#include "support/rng.hh"
#include "workloads/decoder.hh"

namespace step::test {

/** 1x1 data tile carrying @p v. */
inline Value
val(float v)
{
    return Tile::withData(1, 1, {v}, 1);
}

inline Nested
leaf(float v)
{
    return Nested(val(v));
}

/** Nested list of scalar leaves. */
inline Nested
vec(std::initializer_list<float> xs)
{
    std::vector<Nested> kids;
    for (float x : xs)
        kids.push_back(leaf(x));
    return Nested::list(std::move(kids));
}

inline Nested
list(std::initializer_list<Nested> xs)
{
    return Nested::list(std::vector<Nested>(xs));
}

/** Flatten a decoded nested tree of 1x1 tiles back to floats (by DFS). */
inline void
collectLeaves(const Nested& n, std::vector<float>& out)
{
    if (n.isLeaf()) {
        out.push_back(n.leaf().tile().at(0, 0));
        return;
    }
    for (const auto& c : n.children())
        collectLeaves(c, out);
}

inline std::vector<float>
leavesOf(const Nested& n)
{
    std::vector<float> out;
    collectLeaves(n, out);
    return out;
}

/** Shape of a stream of 1x1 scalar tiles. */
inline DataType
scalarTile()
{
    return DataType::tile(1, 1, 1);
}

/**
 * Drives a single already-constructed operator whose input sources and
 * output sink were registered on the same graph; convenience wrapper
 * that runs the graph and returns the sink capture.
 */
struct SingleOpResult
{
    std::vector<Token> toks;
    SimResult sim;
};

/**
 * Policy decorator counting split() calls. The engine consults its
 * policy exactly once per iteration it simulates, so the count is the
 * number of simulated iterations, across all engines and threads.
 */
class CountingPolicy final : public runtime::Policy
{
  public:
    explicit CountingPolicy(const runtime::Policy& inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    runtime::BwSplit
    split(const runtime::LoadSnapshot& load, int64_t total_bw) const override
    {
        calls_.fetch_add(1, std::memory_order_relaxed);
        return inner_.split(load, total_bw);
    }
    int64_t calls() const { return calls_.load(); }

  private:
    const runtime::Policy& inner_;
    mutable std::atomic<int64_t> calls_{0};
};

/**
 * One decoder iteration on an arena-backed @p g, recycled and rebuilt
 * for (p, spec): the path perfbench's replay takes, kept as an oracle
 * next to the cold build and the IterationGraph rearm.
 */
inline SimResult
recycledIteration(Graph& g, const DecoderParams& p,
                  const IterationSpec& spec, dam::Scheduler& sched)
{
    g.recycle(
        iterationSimConfig(static_cast<int64_t>(spec.kvLens.size())));
    buildDecoderLayer(g, p, spec.trace, spec.kvLens);
    return g.run(sched);
}

/**
 * Policy decorator recording each decode iteration's KV lengths and
 * decode bandwidth. The engine consults its policy once per iteration,
 * and its decode batch is its running set in admission order; on a
 * fault-free trace without shedding that is trace order, so the
 * decoding requests of @p reqs, read at the consultation, are exactly
 * the batch.
 */
class DecodeRecorder final : public runtime::Policy
{
  public:
    struct Iteration
    {
        std::vector<int64_t> kvLens;
        int64_t decodeBw = 0;
    };

    DecodeRecorder(const runtime::Policy& inner,
                   const std::vector<runtime::Request>& reqs)
        : inner_(inner), reqs_(reqs)
    {}

    std::string name() const override { return inner_.name(); }
    runtime::BwSplit
    split(const runtime::LoadSnapshot& load, int64_t total_bw) const override
    {
        const runtime::BwSplit s = inner_.split(load, total_bw);
        if (load.activeDecodes > 0) {
            Iteration& it = iters_.emplace_back();
            it.decodeBw = s.decodeBw;
            for (const runtime::Request& r : reqs_)
                if (r.state == runtime::ReqState::Decoding)
                    it.kvLens.push_back(r.contextLen());
        }
        return s;
    }
    const std::vector<Iteration>& iterations() const { return iters_; }

  private:
    const runtime::Policy& inner_;
    const std::vector<runtime::Request>& reqs_;
    mutable std::vector<Iteration> iters_;
};

/**
 * Cold replay of every decode iteration @p rec saw on an engine
 * configured by @p ec: each one built from scratch (runDecoderIteration)
 * with the engine's layer parameters and bandwidth spread, and the
 * expert traces redrawn from Rng(ec.seed) in iteration order, as the
 * engine draws them. Returns the per-layer results in iteration order.
 */
inline std::vector<SimResult>
coldReplay(const runtime::EngineConfig& ec, const DecodeRecorder& rec)
{
    DecoderParams p;
    p.cfg = ec.model;
    p.attnStrategy = ec.attnStrategy;
    p.attnRegions = ec.attnRegions;
    p.kvTileRows = ec.kvTileRows;
    p.moeRegions = ec.moeRegions;
    p.moeTile = ec.moeTile;
    p.denseTile = ec.denseTile;
    p.weightTileCols = ec.weightTileCols;
    p.seed = ec.seed;
    const int64_t decode_units =
        2 + ec.attnRegions +
        (ec.moeRegions > 0 ? ec.moeRegions : ec.model.numExperts);

    Rng rng(ec.seed);
    dam::Scheduler sched;
    std::vector<SimResult> out;
    for (const DecodeRecorder::Iteration& it : rec.iterations()) {
        IterationSpec spec;
        spec.kvLens = it.kvLens;
        p.batch = static_cast<int64_t>(it.kvLens.size());
        spec.trace = generateExpertTrace(rng, p.batch, ec.model.numExperts,
                                         ec.model.topK);
        p.computeBwPerMatmul =
            std::max<int64_t>(16, it.decodeBw / decode_units);
        p.cfg.moeMatmulBw = p.computeBwPerMatmul;
        out.push_back(runDecoderIteration(p, spec, &sched));
    }
    return out;
}

} // namespace step::test
