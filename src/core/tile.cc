#include "core/tile.hh"

#include <algorithm>
#include <cmath>

#include "support/error.hh"

namespace step {

Tile::Tile(int64_t rows, int64_t cols, int elem_bytes)
    : rows_(rows), cols_(cols), elemBytes_(elem_bytes)
{
    STEP_ASSERT(rows >= 0 && cols >= 0, "negative tile shape");
}

void
Tile::releaseHeap() noexcept
{
    if (p_.heap->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete p_.heap;
}

Tile
Tile::withData(int64_t rows, int64_t cols, std::vector<float> data,
               int elem_bytes)
{
    STEP_ASSERT(static_cast<int64_t>(data.size()) == rows * cols,
                "payload size " << data.size() << " != " << rows * cols);
    Tile t(rows, cols, elem_bytes);
    if (t.numel() <= kInlineFloats) {
        std::copy(data.begin(), data.end(), t.p_.inl);
        t.kind_ = Kind::Inline;
    } else {
        t.p_.heap = new HeapBuf{{1}, std::move(data)};
        t.kind_ = Kind::Heap;
    }
    return t;
}

Tile
Tile::withData(int64_t rows, int64_t cols, std::initializer_list<float> data,
               int elem_bytes)
{
    if (static_cast<int64_t>(data.size()) > kInlineFloats)
        return withData(rows, cols, std::vector<float>(data), elem_bytes);
    STEP_ASSERT(static_cast<int64_t>(data.size()) == rows * cols,
                "payload size " << data.size() << " != " << rows * cols);
    Tile t(rows, cols, elem_bytes);
    std::copy(data.begin(), data.end(), t.p_.inl);
    t.kind_ = Kind::Inline;
    return t;
}

Tile
Tile::zeros(int64_t rows, int64_t cols, int elem_bytes)
{
    Tile t(rows, cols, elem_bytes);
    t.kind_ = Kind::Zeros;
    return t;
}

float
Tile::at(int64_t r, int64_t c) const
{
    STEP_ASSERT(hasData(), "at() on shape-only tile");
    STEP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "tile index (" << r << "," << c << ") out of "
                << rows_ << "x" << cols_);
    const float* p = ptr();
    return p ? p[r * cols_ + c] : 0.0f;
}

bool
Tile::equals(const Tile& o, float tol) const
{
    if (!sameShape(o))
        return false;
    if (!hasData() || !o.hasData())
        return true;
    const float* a = ptr();
    const float* b = o.ptr();
    for (int64_t i = 0; i < numel(); ++i) {
        float d = (a ? a[i] : 0.0f) - (b ? b[i] : 0.0f);
        if (std::fabs(d) > tol)
            return false;
    }
    return true;
}

Tile
matmul(const Tile& a, const Tile& b, int64_t* flops)
{
    STEP_ASSERT(a.cols() == b.rows(),
                "matmul shape mismatch: " << a.rows() << "x" << a.cols()
                << " * " << b.rows() << "x" << b.cols());
    if (flops)
        *flops += 2 * a.rows() * a.cols() * b.cols();
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), b.cols(), a.elemBytes());
    std::vector<float> out(static_cast<size_t>(a.rows() * b.cols()), 0.0f);
    for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t k = 0; k < a.cols(); ++k) {
            float av = a.at(i, k);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < b.cols(); ++j)
                out[static_cast<size_t>(i * b.cols() + j)] +=
                    av * b.at(k, j);
        }
    }
    return Tile::withData(a.rows(), b.cols(), std::move(out),
                          a.elemBytes());
}

namespace {

template <typename F>
Tile
elementwise2(const Tile& a, const Tile& b, int64_t* flops, F&& f)
{
    STEP_ASSERT(a.sameShape(b), "elementwise shape mismatch: "
                << a.rows() << "x" << a.cols() << " vs "
                << b.rows() << "x" << b.cols());
    if (flops)
        *flops += a.numel();
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), a.cols(), a.elemBytes());
    std::vector<float> out(static_cast<size_t>(a.numel()));
    for (int64_t i = 0; i < a.rows(); ++i)
        for (int64_t j = 0; j < a.cols(); ++j)
            out[static_cast<size_t>(i * a.cols() + j)] =
                f(a.at(i, j), b.at(i, j));
    return Tile::withData(a.rows(), a.cols(), std::move(out),
                          a.elemBytes());
}

/** Append @p t's payload (zeros when it stores none) to @p out. */
void
appendPayload(std::vector<float>& out, const Tile& t)
{
    const float* p = t.ptr();
    if (p)
        out.insert(out.end(), p, p + t.numel());
    else
        out.resize(out.size() + static_cast<size_t>(t.numel()), 0.0f);
}

} // namespace

Tile
add(const Tile& a, const Tile& b, int64_t* flops)
{
    return elementwise2(a, b, flops,
                        [](float x, float y) { return x + y; });
}

Tile
elemMul(const Tile& a, const Tile& b, int64_t* flops)
{
    return elementwise2(a, b, flops,
                        [](float x, float y) { return x * y; });
}

Tile
silu(const Tile& a, int64_t* flops)
{
    // Count ~4 ops per element (exp, add, div, mul).
    if (flops)
        *flops += 4 * a.numel();
    if (!a.hasData())
        return Tile(a.rows(), a.cols(), a.elemBytes());
    std::vector<float> out(static_cast<size_t>(a.numel()));
    for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t j = 0; j < a.cols(); ++j) {
            float x = a.at(i, j);
            out[static_cast<size_t>(i * a.cols() + j)] =
                x / (1.0f + std::exp(-x));
        }
    }
    return Tile::withData(a.rows(), a.cols(), std::move(out),
                          a.elemBytes());
}

Tile
retileRow(const Tile& a, const Tile& b)
{
    if (a.numel() == 0 && a.rows() == 0)
        return b;
    STEP_ASSERT(a.cols() == b.cols(), "retileRow col mismatch: "
                << a.cols() << " vs " << b.cols());
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows() + b.rows(), a.cols(), a.elemBytes());
    std::vector<float> out;
    out.reserve(static_cast<size_t>((a.rows() + b.rows()) * a.cols()));
    appendPayload(out, a);
    appendPayload(out, b);
    return Tile::withData(a.rows() + b.rows(), a.cols(), std::move(out),
                          a.elemBytes());
}

Tile
retileCol(const Tile& a, const Tile& b)
{
    if (a.numel() == 0 && a.cols() == 0)
        return b;
    STEP_ASSERT(a.rows() == b.rows(), "retileCol row mismatch: "
                << a.rows() << " vs " << b.rows());
    if (!a.hasData() || !b.hasData())
        return Tile(a.rows(), a.cols() + b.cols(), a.elemBytes());
    std::vector<float> out;
    out.reserve(static_cast<size_t>(a.rows() * (a.cols() + b.cols())));
    for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t j = 0; j < a.cols(); ++j)
            out.push_back(a.at(i, j));
        for (int64_t j = 0; j < b.cols(); ++j)
            out.push_back(b.at(i, j));
    }
    return Tile::withData(a.rows(), a.cols() + b.cols(), std::move(out),
                          a.elemBytes());
}

Tile
sliceRows(const Tile& a, int64_t r0, int64_t r1)
{
    STEP_ASSERT(0 <= r0 && r0 <= r1 && r1 <= a.rows(),
                "sliceRows [" << r0 << "," << r1 << ") of " << a.rows());
    if (!a.hasData())
        return Tile(r1 - r0, a.cols(), a.elemBytes());
    const float* p = a.ptr();
    if (!p)
        return Tile::zeros(r1 - r0, a.cols(), a.elemBytes());
    std::vector<float> out(p + r0 * a.cols(), p + r1 * a.cols());
    return Tile::withData(r1 - r0, a.cols(), std::move(out),
                          a.elemBytes());
}

} // namespace step
