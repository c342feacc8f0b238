/**
 * @file
 * Runtime tile type. A tile is a two-dimensional regular matrix whose shape
 * may be decided at runtime (dynamically-sized tiles are first-class in
 * STeP, section 3.1). Tiles run in one of two modes:
 *
 *  - timing mode: shape-only; `hasData()` is false. The simulator cost
 *    model only needs rows/cols/element-size, so full model dimensions
 *    can be simulated without materializing weights.
 *  - functional mode: carries float payload so tests can check STeP graphs
 *    against dense references.
 *
 * Payload storage depends on size. Up to kInlineFloats values (control
 * tokens: addresses, [n_tiles, base] metadata, pad flags, online-softmax
 * m/l) live inline in the tile, so building, copying and moving them
 * never touches the heap. An all-zero tile from zeros() stores nothing.
 * Larger payloads (activations, weights) sit in one immutable heap
 * buffer shared by intrusive refcount, so routing a tile through the
 * graph never deep-copies. Every representation is a fixed-size block
 * plus at most one refcount: a move copies 40 bytes and marks the source
 * shape-only.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace step {

/** Default element size: BFloat16, as in the paper's evaluation. */
constexpr int kDefaultElemBytes = 2;

class Tile
{
  public:
    /** Payloads of at most this many floats are stored inline. */
    static constexpr int64_t kInlineFloats = 4;

    Tile() = default;

    /** Shape-only tile (timing mode). */
    Tile(int64_t rows, int64_t cols, int elem_bytes = kDefaultElemBytes);

    Tile(const Tile& o) noexcept
        : rows_(o.rows_), cols_(o.cols_), elemBytes_(o.elemBytes_),
          kind_(o.kind_), p_(o.p_)
    {
        retain();
    }

    Tile(Tile&& o) noexcept
        : rows_(o.rows_), cols_(o.cols_), elemBytes_(o.elemBytes_),
          kind_(o.kind_), p_(o.p_)
    {
        o.kind_ = Kind::Shape;
    }

    Tile&
    operator=(const Tile& o) noexcept
    {
        if (this != &o) {
            o.retain();
            release();
            assignFields(o);
        }
        return *this;
    }

    Tile&
    operator=(Tile&& o) noexcept
    {
        if (this != &o) {
            release();
            assignFields(o);
            o.kind_ = Kind::Shape;
        }
        return *this;
    }

    ~Tile() { release(); }

    /** Tile with payload (functional mode); data.size()==rows*cols. */
    static Tile withData(int64_t rows, int64_t cols,
                         std::vector<float> data,
                         int elem_bytes = kDefaultElemBytes);

    /** Same, from a braced list: control tiles stay off the heap. */
    static Tile withData(int64_t rows, int64_t cols,
                         std::initializer_list<float> data,
                         int elem_bytes = kDefaultElemBytes);

    /** Tile of zeros with payload; stores no buffer. */
    static Tile zeros(int64_t rows, int64_t cols,
                      int elem_bytes = kDefaultElemBytes);

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int elemBytes() const { return elemBytes_; }
    int64_t numel() const { return rows_ * cols_; }
    int64_t bytes() const { return numel() * elemBytes_; }
    bool hasData() const { return kind_ != Kind::Shape; }

    /** Element access; requires hasData(). */
    float at(int64_t r, int64_t c) const;

    /**
     * Row-major payload of numel() floats; null for a shape-only tile
     * and for an all-zero tile from zeros(), which stores nothing.
     */
    const float*
    ptr() const
    {
        switch (kind_) {
        case Kind::Inline: return p_.inl;
        case Kind::Heap:   return p_.heap->data.data();
        default:           return nullptr;
        }
    }

    bool
    sameShape(const Tile& o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_;
    }

    /** Exact equality (shape, and payload when both have data). */
    bool equals(const Tile& o, float tol = 0.0f) const;

  private:
    enum class Kind : uint8_t { Shape, Zeros, Inline, Heap };

    /** Shared immutable payload of more than kInlineFloats values. */
    struct HeapBuf
    {
        std::atomic<uint32_t> refs{1};
        std::vector<float> data;
    };

    union Payload
    {
        float inl[kInlineFloats];
        HeapBuf* heap;
    };

    void
    retain() const noexcept
    {
        if (kind_ == Kind::Heap)
            p_.heap->refs.fetch_add(1, std::memory_order_relaxed);
    }

    void
    release() noexcept
    {
        if (kind_ == Kind::Heap)
            releaseHeap();
    }

    /** Drop one reference on the heap payload (out of line: cold). */
    void releaseHeap() noexcept;

    void
    assignFields(const Tile& o) noexcept
    {
        rows_ = o.rows_;
        cols_ = o.cols_;
        elemBytes_ = o.elemBytes_;
        kind_ = o.kind_;
        p_ = o.p_;
    }

    int64_t rows_ = 0;
    int64_t cols_ = 0;
    int elemBytes_ = kDefaultElemBytes;
    Kind kind_ = Kind::Shape; ///< sits in the padding after elemBytes_
    Payload p_{};
};

static_assert(sizeof(Tile) == 40, "Tile must stay a 40-byte block");

/** C = A x B. FLOPs = 2*m*k*n (counted even in timing mode). */
Tile matmul(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** Elementwise sum; shapes must match. */
Tile add(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** Elementwise (Hadamard) product. */
Tile elemMul(const Tile& a, const Tile& b, int64_t* flops = nullptr);

/** SiLU activation x * sigmoid(x), as used by SwiGLU. */
Tile silu(const Tile& a, int64_t* flops = nullptr);

/** Row-wise concatenation: [a; b]. Used by the RetileRow accumulator. */
Tile retileRow(const Tile& a, const Tile& b);

/** Column-wise concatenation: [a, b]. Used by the RetileCol accumulator. */
Tile retileCol(const Tile& a, const Tile& b);

/** Rows [r0, r1) of the tile. Used by RetileStreamify splitting. */
Tile sliceRows(const Tile& a, int64_t r0, int64_t r1);

} // namespace step
