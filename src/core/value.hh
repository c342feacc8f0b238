/**
 * @file
 * Stream element values. A STeP stream's data type is a tile, a selector,
 * a read-only reference to on-chip memory, or a tuple of these
 * (section 3.1 "Data Type").
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "core/tile.hh"
#include "support/error.hh"
#include "support/smallvec.hh"

namespace step {

/**
 * Small-buffer-optimized index store for Selector. One-hot and top-2
 * routing tokens — the overwhelming majority of MoE/attention traffic —
 * fit in the two inline slots, so constructing and copying them never
 * touches the heap; wider selectors spill to a vector.
 */
using IndexVec = SmallVec<uint32_t, 2>;

/**
 * Multi-hot routing vector: the indices of the selected consumers or
 * producers (Figure 4 writes these as tuples of nonzero indices).
 */
struct Selector
{
    IndexVec indices;

    Selector() = default;
    explicit Selector(IndexVec idx) : indices(std::move(idx)) {}
    explicit Selector(const std::vector<uint32_t>& idx)
        : indices(idx.begin(), idx.end())
    {}
    static Selector oneHot(uint32_t i) { return Selector(IndexVec{i}); }

    bool operator==(const Selector& o) const { return indices == o.indices; }
    /** Metric size: one machine word. */
    int64_t bytes() const { return 8; }
};

/** Read-only reference to a buffer allocated in on-chip memory. */
struct BufferRef
{
    /** Scratchpad allocation id (see mem/scratchpad.hh). */
    uint64_t id = 0;
    /** Total payload bytes of the referenced buffer. */
    int64_t payloadBytes = 0;

    bool operator==(const BufferRef& o) const { return id == o.id; }
    /** Metric size: an address. */
    int64_t bytes() const { return 8; }
};

class Value;
struct TupleNode;

/**
 * Tuple payload (from Zip; the attention state): a refcounted handle on
 * a TupleNode, so copying a tuple value (Broadcast fan-out) bumps one
 * counter and never copies the elements.
 */
class TupleVal
{
  public:
    TupleVal() = default;
    /** Adopts one reference on @p n. */
    explicit TupleVal(TupleNode* n) : node_(n) {}
    TupleVal(const TupleVal& o) noexcept;
    TupleVal(TupleVal&& o) noexcept : node_(o.node_) { o.node_ = nullptr; }
    TupleVal& operator=(const TupleVal& o) noexcept;
    TupleVal& operator=(TupleVal&& o) noexcept;
    ~TupleVal();

    const std::vector<Value>& elems() const;
    int64_t bytes() const;

  private:
    friend class Value;
    TupleNode* node_ = nullptr;
};

/**
 * Per-thread free list of tuple nodes, the pattern FramePool uses for
 * coroutine frames. A node whose last reference drops is cleared (its
 * elements released) and parked on the releasing thread's list with its
 * element capacity intact, so the steady-state drain builds tuples
 * without touching the heap. At most kMaxCached nodes are parked per
 * thread; the rest, and nodes that grew past kMaxPooledElems, go back to
 * the heap. A node released on another thread than the one that built it
 * simply parks there. Parked nodes are freed at trim() or thread exit.
 */
class TuplePool
{
  public:
    static constexpr uint32_t kMaxCached = 512;
    static constexpr size_t kMaxPooledElems = 8;

    struct Stats
    {
        uint64_t hits = 0;   ///< nodes served from the free list
        uint64_t misses = 0; ///< nodes that touched the heap
        uint64_t cached = 0; ///< nodes currently parked
    };

    /** A node with no elements and one reference (owned by the caller). */
    static TupleNode* acquire();
    /** Recycle a node whose last reference just dropped. */
    static void recycle(TupleNode* n) noexcept;

    /** Counters for the *calling thread's* pool only. */
    static Stats stats();
    /** Free the calling thread's parked nodes. */
    static void trim();
};

/**
 * A single data element travelling on a stream.
 *
 * Implemented as a hand-rolled tagged union rather than std::variant:
 * tokens are moved several times per simulated channel transfer, and the
 * open-coded switch moves (plus same-kind move-assignment reusing the
 * destination in place, the FIFO-slot recycle case) compile to a few
 * stores where the variant machinery dispatches through visit tables.
 * Tiles are most of the traffic, so copy, move and destroy test for a
 * tile inline and leave the other kinds to the switch.
 */
class Value
{
  public:
    Value() : kind_(Kind::Tile), tile_() {}
    Value(Tile t)                                   // NOLINT implicit
        : kind_(Kind::Tile), tile_(std::move(t))
    {}
    Value(Selector s)                               // NOLINT implicit
        : kind_(Kind::Selector), sel_(std::move(s))
    {}
    Value(BufferRef b)                              // NOLINT implicit
        : kind_(Kind::BufferRef), buf_(b)
    {}
    Value(TupleVal t)                               // NOLINT implicit
        : kind_(Kind::Tuple), tup_(std::move(t))
    {}

    Value(const Value& o) : kind_(o.kind_)
    {
        if (kind_ == Kind::Tile)
            new (&tile_) Tile(o.tile_);
        else
            copyFrom(o);
    }

    Value(Value&& o) noexcept : kind_(o.kind_)
    {
        if (kind_ == Kind::Tile)
            new (&tile_) Tile(std::move(o.tile_));
        else
            moveFrom(std::move(o));
    }

    Value&
    operator=(const Value& o)
    {
        // Copy-construct first so a throwing payload copy (a spilled
        // selector allocates) cannot leave kind_ pointing at an
        // unconstructed member; the move assign below is noexcept.
        if (this != &o) {
            Value tmp(o);
            *this = std::move(tmp);
        }
        return *this;
    }

    Value&
    operator=(Value&& o) noexcept
    {
        if (kind_ == Kind::Tile && o.kind_ == Kind::Tile) {
            tile_ = std::move(o.tile_); // self-move safe
            return *this;
        }
        return moveAssignAnyKind(std::move(o));
    }

    ~Value()
    {
        if (kind_ == Kind::Tile)
            tile_.~Tile();
        else
            destroy();
    }

    /** Tuple of copies of @p elems. */
    static Value tuple(std::initializer_list<Value> elems);

    /**
     * Tuple built in place: @p fill appends the elements to an empty
     * vector that keeps the capacity of a recycled node.
     */
    template <typename Fill>
    static Value tupleOf(Fill&& fill);

    bool isTile() const { return kind_ == Kind::Tile; }
    bool isSelector() const { return kind_ == Kind::Selector; }
    bool isBufferRef() const { return kind_ == Kind::BufferRef; }
    bool isTuple() const { return kind_ == Kind::Tuple; }

    // Accessors are defined inline below (per-event hot path); the
    // assert only formats its message on failure.
    const Tile& tile() const;
    const Selector& selector() const;
    const BufferRef& bufferRef() const;
    const std::vector<Value>& tupleElems() const;

    /** Wire size in bytes, used by the roofline timing model. */
    int64_t bytes() const;

    std::string toString() const;

  private:
    enum class Kind : uint8_t { Tile, Selector, BufferRef, Tuple };

    /** Move-assignment when either side is not a tile. */
    Value& moveAssignAnyKind(Value&& o) noexcept;

    // Kind-dispatched payload lifetime, out of line: the inline paths
    // above handle tiles, these the rest.
    void copyFrom(const Value& o);
    void moveFrom(Value&& o) noexcept;
    void destroy() noexcept;

    Kind kind_;
    union {
        Tile tile_;
        Selector sel_;
        BufferRef buf_;
        TupleVal tup_;
    };
};

static_assert(sizeof(Value) == 48, "Value must stay a 48-byte block");

/** Refcounted tuple storage; pooled by TuplePool. */
struct TupleNode
{
    std::atomic<uint32_t> refs{1};
    std::vector<Value> elems;
    TupleNode* next = nullptr; ///< free-list link while parked
};

inline TupleVal::TupleVal(const TupleVal& o) noexcept : node_(o.node_)
{
    if (node_)
        node_->refs.fetch_add(1, std::memory_order_relaxed);
}

inline TupleVal&
TupleVal::operator=(const TupleVal& o) noexcept
{
    TupleVal tmp(o);
    return *this = std::move(tmp);
}

inline TupleVal&
TupleVal::operator=(TupleVal&& o) noexcept
{
    if (this != &o) {
        TupleNode* old = node_;
        node_ = o.node_;
        o.node_ = nullptr;
        if (old && old->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            TuplePool::recycle(old);
    }
    return *this;
}

inline TupleVal::~TupleVal()
{
    if (node_ && node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        TuplePool::recycle(node_);
}

inline const std::vector<Value>&
TupleVal::elems() const
{
    STEP_ASSERT(node_, "empty tuple handle");
    return node_->elems;
}

template <typename Fill>
Value
Value::tupleOf(Fill&& fill)
{
    TupleVal t(TuplePool::acquire());
    fill(t.node_->elems);
    return Value(std::move(t));
}

inline const Tile&
Value::tile() const
{
    STEP_ASSERT(isTile(), "value is not a tile: " << toString());
    return tile_;
}

inline const Selector&
Value::selector() const
{
    STEP_ASSERT(isSelector(), "value is not a selector: " << toString());
    return sel_;
}

inline const BufferRef&
Value::bufferRef() const
{
    STEP_ASSERT(isBufferRef(), "value is not a buffer ref: " << toString());
    return buf_;
}

inline const std::vector<Value>&
Value::tupleElems() const
{
    STEP_ASSERT(isTuple(), "value is not a tuple: " << toString());
    return tup_.elems();
}

inline int64_t
Value::bytes() const
{
    if (isTile())
        return tile_.bytes();
    if (isSelector())
        return sel_.bytes();
    if (isBufferRef())
        return buf_.bytes();
    return tup_.bytes();
}

} // namespace step
