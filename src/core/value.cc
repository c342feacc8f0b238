#include "core/value.hh"

#include <sstream>

#include "support/error.hh"

namespace step {

int64_t
TupleVal::bytes() const
{
    int64_t n = 0;
    if (node_)
        for (const auto& e : node_->elems)
            n += e.bytes();
    return n;
}

namespace {

/**
 * The calling thread's parked nodes. Trivially destructible, so it stays
 * usable while other thread-locals are torn down at thread exit; the
 * Drain guard below frees the parked nodes and closes the list, after
 * which released nodes go straight back to the heap.
 */
struct FreeList
{
    TupleNode* head = nullptr;
    uint32_t cached = 0;
    bool closed = false;
    bool drainArmed = false;
    TuplePool::Stats stats;
};

thread_local FreeList t_free;

void
freeParked(FreeList& fl)
{
    while (TupleNode* n = fl.head) {
        fl.head = n->next;
        delete n;
    }
    fl.cached = 0;
}

struct Drain
{
    bool armed = false;
    ~Drain()
    {
        t_free.closed = true;
        freeParked(t_free);
    }
};

thread_local Drain t_drain;

} // namespace

TupleNode*
TuplePool::acquire()
{
    FreeList& fl = t_free;
    if (TupleNode* n = fl.head) {
        fl.head = n->next;
        --fl.cached;
        ++fl.stats.hits;
        n->next = nullptr;
        n->refs.store(1, std::memory_order_relaxed);
        return n;
    }
    ++fl.stats.misses;
    return new TupleNode;
}

void
TuplePool::recycle(TupleNode* n) noexcept
{
    // Release the elements first: a nested tuple may recycle into the
    // list while this node is still off it.
    n->elems.clear();
    FreeList& fl = t_free;
    if (fl.closed || fl.cached >= kMaxCached ||
        n->elems.capacity() > kMaxPooledElems) {
        delete n;
        return;
    }
    if (!fl.drainArmed) {
        t_drain.armed = true; // registers the thread-exit drain
        fl.drainArmed = true;
    }
    n->next = fl.head;
    fl.head = n;
    ++fl.cached;
}

TuplePool::Stats
TuplePool::stats()
{
    Stats out = t_free.stats;
    out.cached = t_free.cached;
    return out;
}

void
TuplePool::trim()
{
    freeParked(t_free);
}

void
Value::copyFrom(const Value& o)
{
    switch (kind_) {
    case Kind::Tile:      new (&tile_) Tile(o.tile_); break;
    case Kind::Selector:  new (&sel_) Selector(o.sel_); break;
    case Kind::BufferRef: new (&buf_) BufferRef(o.buf_); break;
    case Kind::Tuple:     new (&tup_) TupleVal(o.tup_); break;
    }
}

void
Value::moveFrom(Value&& o) noexcept
{
    switch (kind_) {
    case Kind::Tile:      new (&tile_) Tile(std::move(o.tile_)); break;
    case Kind::Selector:  new (&sel_) Selector(std::move(o.sel_)); break;
    case Kind::BufferRef: new (&buf_) BufferRef(o.buf_); break;
    case Kind::Tuple:     new (&tup_) TupleVal(std::move(o.tup_)); break;
    }
}

void
Value::destroy() noexcept
{
    switch (kind_) {
    case Kind::Tile:      tile_.~Tile(); break;
    case Kind::Selector:  sel_.~Selector(); break;
    case Kind::BufferRef: break; // trivially destructible
    case Kind::Tuple:     tup_.~TupleVal(); break;
    }
}

Value&
Value::moveAssignAnyKind(Value&& o) noexcept
{
    if (this == &o)
        return *this;
    if (kind_ == o.kind_) {
        // In-place member move-assignment: the dominant case when a
        // recycled FIFO slot receives a token of the same kind.
        switch (kind_) {
        case Kind::Tile:      tile_ = std::move(o.tile_); break;
        case Kind::Selector:  sel_ = std::move(o.sel_); break;
        case Kind::BufferRef: buf_ = o.buf_; break;
        case Kind::Tuple:     tup_ = std::move(o.tup_); break;
        }
        return *this;
    }
    destroy();
    kind_ = o.kind_;
    moveFrom(std::move(o));
    return *this;
}

Value
Value::tuple(std::initializer_list<Value> elems)
{
    return tupleOf([&](std::vector<Value>& out) {
        out.insert(out.end(), elems.begin(), elems.end());
    });
}

std::string
Value::toString() const
{
    std::ostringstream os;
    if (isTile()) {
        const Tile& t = tile();
        os << "Tile[" << t.rows() << "x" << t.cols() << "]";
        if (t.hasData() && t.numel() <= 4) {
            os << "{";
            for (int64_t i = 0; i < t.rows(); ++i)
                for (int64_t j = 0; j < t.cols(); ++j)
                    os << (i + j ? "," : "") << t.at(i, j);
            os << "}";
        }
    } else if (isSelector()) {
        os << "Sel(";
        for (size_t i = 0; i < selector().indices.size(); ++i)
            os << (i ? "," : "") << selector().indices[i];
        os << ")";
    } else if (isBufferRef()) {
        os << "Buf#" << bufferRef().id;
    } else {
        os << "Tuple(";
        for (size_t i = 0; i < tupleElems().size(); ++i)
            os << (i ? "," : "") << tupleElems()[i].toString();
        os << ")";
    }
    return os.str();
}

} // namespace step
