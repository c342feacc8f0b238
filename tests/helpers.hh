/**
 * @file
 * Shared test helpers: compact constructors for value tokens, a
 * one-operator harness that runs Source -> Op -> Sink and returns the
 * captured output stream, and a call-counting serving policy.
 */
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/codec.hh"
#include "core/token.hh"
#include "ops/graph.hh"
#include "ops/source_sink.hh"
#include "runtime/policy.hh"

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

} // namespace step::test
