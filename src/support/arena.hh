/**
 * @file
 * Monotonic arena + name interner backing graph recycling. A caller
 * that rebuilds a structurally similar graph over and over (a replay
 * that rebuilds per batch change) allocates operator objects from a
 * bump arena and interns channel names, so Graph::recycle() releases a
 * whole build's nodes by running destructors and resetting an offset —
 * the blocks and the interned strings are reused by the next build, so
 * steady-state graph reconstruction performs no large allocations.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace step {

/**
 * Bump allocator over retained blocks. allocate() never constructs;
 * reset() never frees — callers run destructors themselves (Graph does,
 * in reverse construction order) and subsequent builds bump through the
 * same memory.
 */
class MonotonicArena
{
  public:
    static constexpr size_t kDefaultBlockBytes = 64 * 1024;

    explicit MonotonicArena(size_t block_bytes = kDefaultBlockBytes)
        : blockBytes_(block_bytes)
    {}

    void*
    allocate(size_t size, size_t align)
    {
        for (;;) {
            if (cur_ < blocks_.size()) {
                Block& b = blocks_[cur_];
                // Align the actual address: the block base is only
                // guaranteed new[]-aligned, which over-aligned types
                // can exceed.
                auto base = reinterpret_cast<uintptr_t>(b.data.get());
                uintptr_t at = (base + b.used + align - 1) &
                               ~static_cast<uintptr_t>(align - 1);
                if (at + size <= base + b.size) {
                    b.used = at + size - base;
                    return reinterpret_cast<void*>(at);
                }
                ++cur_;
                continue;
            }
            size_t want = std::max(blockBytes_, size + align);
            blocks_.push_back(Block{
                std::make_unique<std::byte[]>(want), want, 0});
        }
    }

    /** Rewind every block; memory is retained for the next build. */
    void
    reset()
    {
        for (Block& b : blocks_)
            b.used = 0;
        cur_ = 0;
    }

    size_t
    retainedBytes() const
    {
        size_t n = 0;
        for (const Block& b : blocks_)
            n += b.size;
        return n;
    }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    size_t blockBytes_;
    std::vector<Block> blocks_;
    size_t cur_ = 0;
};

/**
 * String interner for channel/operator names. Rebuilding the same graph
 * produces the same names, so after the first build every lookup hits
 * and returns a stable reference with no allocation. Interned strings
 * survive recycle() by design (they key the reuse).
 */
class NameInterner
{
  public:
    std::string_view
    intern(std::string_view s)
    {
        auto it = pool_.find(s);
        if (it != pool_.end())
            return *it;
        return *pool_.emplace(s).first;
    }

    size_t size() const { return pool_.size(); }

  private:
    struct Hash
    {
        using is_transparent = void;
        size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    struct Eq
    {
        using is_transparent = void;
        bool
        operator()(std::string_view a, std::string_view b) const
        {
            return a == b;
        }
    };

    std::unordered_set<std::string, Hash, Eq> pool_;
};

/** Everything a recyclable graph retains across iterations. */
struct GraphArena
{
    MonotonicArena mem;
    NameInterner names;
};

} // namespace step
