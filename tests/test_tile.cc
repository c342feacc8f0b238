/**
 * @file
 * Tile algebra tests: matmul, elementwise ops, concatenation, slicing,
 * FLOP accounting, and shape-only (timing mode) propagation. Also the
 * value representation: inline, shared-heap and all-zero payloads under
 * copy and move, and the pooled tuple nodes (sharing, reuse, the cache
 * bound, and release on another thread than the one that built a node).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/tile.hh"
#include "core/value.hh"
#include "helpers.hh"
#include "ops/shape_ops.hh"
#include "support/error.hh"

namespace step {
namespace {

TEST(Tile, MatmulSmall)
{
    Tile a = Tile::withData(2, 3, {1, 2, 3, 4, 5, 6});
    Tile b = Tile::withData(3, 2, {7, 8, 9, 10, 11, 12});
    int64_t flops = 0;
    Tile c = matmul(a, b, &flops);
    EXPECT_EQ(flops, 2 * 2 * 3 * 2);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tile, MatmulShapeOnlyPropagates)
{
    Tile a(4, 8);
    Tile b(8, 16);
    int64_t flops = 0;
    Tile c = matmul(a, b, &flops);
    EXPECT_EQ(c.rows(), 4);
    EXPECT_EQ(c.cols(), 16);
    EXPECT_FALSE(c.hasData());
    EXPECT_EQ(flops, 2 * 4 * 8 * 16);
}

TEST(Tile, MatmulShapeMismatchThrows)
{
    EXPECT_THROW(matmul(Tile(2, 3), Tile(4, 2)), PanicError);
}

TEST(Tile, AddAndMul)
{
    Tile a = Tile::withData(1, 3, {1, 2, 3});
    Tile b = Tile::withData(1, 3, {10, 20, 30});
    Tile s = add(a, b);
    Tile m = elemMul(a, b);
    EXPECT_FLOAT_EQ(s.at(0, 2), 33.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 40.0f);
}

TEST(Tile, Silu)
{
    Tile a = Tile::withData(1, 2, {0.0f, 100.0f});
    Tile s = silu(a);
    EXPECT_FLOAT_EQ(s.at(0, 0), 0.0f);
    EXPECT_NEAR(s.at(0, 1), 100.0f, 1e-3);
}

TEST(Tile, RetileRowGrowsDynamically)
{
    Tile acc(0, 4, 2);
    Tile row1 = Tile::withData(1, 4, {1, 2, 3, 4});
    Tile row2 = Tile::withData(2, 4, {5, 6, 7, 8, 9, 10, 11, 12});
    Tile r = retileRow(acc, row1);
    EXPECT_EQ(r.rows(), 1);
    r = retileRow(r, row2);
    EXPECT_EQ(r.rows(), 3);
    EXPECT_EQ(r.cols(), 4);
    EXPECT_FLOAT_EQ(r.at(2, 3), 12.0f);
    EXPECT_EQ(r.bytes(), 3 * 4 * 2);
}

TEST(Tile, RetileColConcats)
{
    Tile a = Tile::withData(2, 1, {1, 2});
    Tile b = Tile::withData(2, 2, {3, 4, 5, 6});
    Tile c = retileCol(a, b);
    EXPECT_EQ(c.rows(), 2);
    EXPECT_EQ(c.cols(), 3);
    EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f);
    EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(Tile, SliceRows)
{
    Tile a = Tile::withData(3, 2, {1, 2, 3, 4, 5, 6});
    Tile s = sliceRows(a, 1, 3);
    EXPECT_EQ(s.rows(), 2);
    EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
}

TEST(Tile, BytesUseElementSize)
{
    Tile bf16(8, 8, 2);
    Tile fp32(8, 8, 4);
    EXPECT_EQ(bf16.bytes(), 128);
    EXPECT_EQ(fp32.bytes(), 256);
}

TEST(Tile, EqualsRespectsTolerance)
{
    Tile a = Tile::withData(1, 1, {1.0f});
    Tile b = Tile::withData(1, 1, {1.0005f});
    EXPECT_FALSE(a.equals(b));
    EXPECT_TRUE(a.equals(b, 1e-2f));
}

// ---- value semantics of the payload representations ------------------

static_assert(sizeof(Tile) == 40);
static_assert(sizeof(Value) == 48);

/** True when @p t's payload lives inside the tile object itself. */
bool
storedInline(const Tile& t)
{
    const auto* p = reinterpret_cast<const char*>(t.ptr());
    const auto* lo = reinterpret_cast<const char*>(&t);
    return p >= lo && p < lo + sizeof(Tile);
}

void
expectSameTile(const Tile& a, const Tile& b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.elemBytes(), b.elemBytes());
    ASSERT_EQ(a.hasData(), b.hasData());
    if (!a.hasData())
        return;
    for (int64_t r = 0; r < a.rows(); ++r)
        for (int64_t c = 0; c < a.cols(); ++c)
            EXPECT_EQ(a.at(r, c), b.at(r, c)) << r << "," << c;
}

/** One tile of each representation: shape-only, inline, heap, zeros. */
std::vector<Tile>
oneOfEachKind()
{
    return {Tile(2, 3, 4), Tile::withData(2, 2, {1, 2, 3, 4}, 1),
            Tile::withData(1, 5, {1, 2, 3, 4, 5}), Tile::zeros(3, 3)};
}

TEST(TileRepr, SmallPayloadsAreInlineLargeOnesShared)
{
    Tile four = Tile::withData(1, 4, {1, 2, 3, 4});
    Tile five = Tile::withData(1, 5, {1, 2, 3, 4, 5});
    Tile fromVec = Tile::withData(2, 2, std::vector<float>{5, 6, 7, 8});
    EXPECT_TRUE(storedInline(four));
    EXPECT_TRUE(storedInline(fromVec));
    EXPECT_FALSE(storedInline(five));
    EXPECT_FLOAT_EQ(fromVec.at(1, 0), 7.0f);

    Tile shared = five;
    EXPECT_EQ(shared.ptr(), five.ptr()); // one buffer, two handles
    Tile copied = four;
    EXPECT_NE(copied.ptr(), four.ptr()); // inline payloads copy
    expectSameTile(copied, four);
}

TEST(TileRepr, CopyAndMoveAcrossEveryPairOfKinds)
{
    const std::vector<Tile> kinds = oneOfEachKind();
    for (size_t i = 0; i < kinds.size(); ++i) {
        for (size_t j = 0; j < kinds.size(); ++j) {
            SCOPED_TRACE(testing::Message() << "from " << i << " to " << j);
            Tile dst = kinds[j];
            dst = kinds[i]; // copy-assign over another kind
            expectSameTile(dst, kinds[i]);

            Tile src = kinds[i];
            Tile moved = kinds[j];
            moved = std::move(src); // move-assign over another kind
            expectSameTile(moved, kinds[i]);
            // The moved-from tile keeps its shape and drops its payload.
            EXPECT_FALSE(src.hasData());
            EXPECT_EQ(src.rows(), kinds[i].rows());
        }
        Tile copy(kinds[i]);
        expectSameTile(copy, kinds[i]);
        Tile moved(std::move(copy));
        expectSameTile(moved, kinds[i]);
        EXPECT_FALSE(copy.hasData());
    }
}

TEST(TileRepr, SelfAssignmentKeepsThePayload)
{
    for (const Tile& k : oneOfEachKind()) {
        Tile t = k;
        Tile& alias = t;
        t = alias;
        expectSameTile(t, k);
        t = std::move(alias);
        expectSameTile(t, k);
    }
}

TEST(TileRepr, SharedPayloadOutlivesTheTileThatBuiltIt)
{
    Tile keep;
    {
        Tile big = Tile::withData(2, 3, {1, 2, 3, 4, 5, 6});
        keep = big;
    }
    EXPECT_FLOAT_EQ(keep.at(1, 2), 6.0f);
    Value v(keep);
    Value w = v;
    v = Value(Tile(1, 1));
    EXPECT_FLOAT_EQ(w.tile().at(0, 1), 2.0f);
}

TEST(TileRepr, OpsOnInlineTilesAndAtTheInlineBoundary)
{
    // 2x2 * 2x2 stays inline; the boundary between 4 and 5 floats is
    // crossed by concatenation and back by slicing.
    Tile a = Tile::withData(2, 2, {1, 2, 3, 4});
    Tile b = Tile::withData(2, 2, {5, 6, 7, 8});
    Tile c = matmul(a, b);
    EXPECT_TRUE(storedInline(c));
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
    EXPECT_TRUE(c.equals(Tile::withData(2, 2, {19, 22, 43, 50})));
    EXPECT_FALSE(c.equals(Tile::withData(2, 2, {19, 22, 43, 51})));

    Tile s = silu(Tile::withData(1, 2, {0.0f, 100.0f}));
    EXPECT_TRUE(storedInline(s));
    EXPECT_FLOAT_EQ(s.at(0, 0), 0.0f);

    Tile row4 = retileRow(Tile::withData(1, 2, {1, 2}),
                          Tile::withData(1, 2, {3, 4}));
    EXPECT_TRUE(storedInline(row4));
    Tile row6 = retileRow(row4, Tile::withData(1, 2, {5, 6}));
    EXPECT_FALSE(storedInline(row6));
    EXPECT_FLOAT_EQ(row6.at(2, 1), 6.0f);

    Tile col4 = retileCol(Tile::withData(2, 1, {1, 3}),
                          Tile::withData(2, 1, {2, 4}));
    EXPECT_TRUE(storedInline(col4));
    EXPECT_TRUE(col4.equals(a));
    Tile col5 = retileCol(Tile::withData(1, 4, {1, 2, 3, 4}),
                          Tile::withData(1, 1, {5}));
    EXPECT_FALSE(storedInline(col5));
    EXPECT_FLOAT_EQ(col5.at(0, 4), 5.0f);

    Tile five = Tile::withData(5, 1, {1, 2, 3, 4, 5});
    Tile four = sliceRows(five, 1, 5);
    EXPECT_TRUE(storedInline(four));
    EXPECT_TRUE(four.equals(Tile::withData(4, 1, {2, 3, 4, 5})));
    EXPECT_THROW((void)four.at(4, 0), PanicError);
}

TEST(TileRepr, ZerosStoreNothingAndReadAsZero)
{
    Tile z = Tile::zeros(2, 4);
    EXPECT_TRUE(z.hasData());
    EXPECT_EQ(z.ptr(), nullptr);
    EXPECT_EQ(z.at(1, 3), 0.0f);
    EXPECT_TRUE(z.equals(Tile::withData(2, 4, std::vector<float>(8, 0.0f))));

    // Numerics match a materialised zero payload bit for bit, the
    // sign of zero included.
    Tile x = Tile::withData(1, 5, {-0.0f, 1.5f, -2.0f, 3e-38f, 7.0f});
    Tile materialised = Tile::withData(1, 5, std::vector<float>(5, 0.0f));
    Tile viaZeros = add(Tile::zeros(1, 5), x);
    Tile viaData = add(materialised, x);
    for (int64_t j = 0; j < 5; ++j) {
        EXPECT_EQ(std::signbit(viaZeros.at(0, j)),
                  std::signbit(viaData.at(0, j)));
        EXPECT_EQ(viaZeros.at(0, j), viaData.at(0, j));
    }
    EXPECT_TRUE(retileRow(Tile::zeros(1, 5), x)
                    .equals(retileRow(materialised, x)));
    Tile zs = sliceRows(Tile::zeros(6, 2), 1, 4);
    EXPECT_EQ(zs.rows(), 3);
    EXPECT_TRUE(zs.hasData());
    EXPECT_EQ(zs.ptr(), nullptr);
}

TEST(TileRepr, ToStringPrintsInlinePayloads)
{
    EXPECT_EQ(Value(Tile::withData(1, 2, {1.5f, 2.0f})).toString(),
              "Tile[1x2]{1.5,2}");
    EXPECT_EQ(Value(Tile::withData(2, 2, {1, 2, 3, 4})).toString(),
              "Tile[2x2]{1,2,3,4}");
    EXPECT_EQ(Value(Tile::zeros(1, 3)).toString(), "Tile[1x3]{0,0,0}");
    EXPECT_EQ(Value(Tile::withData(1, 5, {1, 2, 3, 4, 5})).toString(),
              "Tile[1x5]");
    EXPECT_EQ(Value(Tile(1, 2)).toString(), "Tile[1x2]");
    EXPECT_EQ(Value::tuple({test::val(1), test::val(2)}).toString(),
              "Tuple(Tile[1x1]{1},Tile[1x1]{2})");
}

// ---- pooled tuple nodes ------------------------------------------------

TEST(TuplePool, CopiesShareOneNodeWhichIsReusedAfterRelease)
{
    TuplePool::trim();
    const TuplePool::Stats before = TuplePool::stats();
    const std::vector<Value>* node = nullptr;
    {
        Value a = Value::tuple({test::val(1), test::val(2)});
        Value b = a;
        node = &a.tupleElems();
        EXPECT_EQ(&b.tupleElems(), node);
        a = Value(Tile(1, 1));
        EXPECT_FLOAT_EQ(b.tupleElems()[1].tile().at(0, 0), 2.0f);
        EXPECT_EQ(TuplePool::stats().cached, 0u); // b still holds it
    }
    EXPECT_EQ(TuplePool::stats().cached, 1u);

    Value c = Value::tupleOf([](std::vector<Value>& out) {
        out.push_back(test::val(3));
    });
    EXPECT_EQ(&c.tupleElems(), node); // the parked node came back
    EXPECT_GE(c.tupleElems().capacity(), 2u); // with its capacity
    ASSERT_EQ(c.tupleElems().size(), 1u);
    const TuplePool::Stats after = TuplePool::stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.cached, 0u);
}

TEST(TuplePool, BroadcastCopiesShareOneNode)
{
    TuplePool::trim();
    {
        Graph g;
        auto ta = encodeNested(test::list({test::vec({1, 2})}), 2);
        auto tb = encodeNested(test::list({test::vec({10, 20})}), 2);
        auto& a = g.add<SourceOp>("a", ta, StreamShape::fixed({1, 2}),
                                  test::scalarTile());
        auto& b = g.add<SourceOp>("b", tb, StreamShape::fixed({1, 2}),
                                  test::scalarTile());
        auto& z = g.add<ZipOp>("z",
                               std::vector<StreamPort>{a.out(), b.out()});
        auto& bc = g.add<BroadcastOp>("bc", z.out(), 3);
        std::vector<SinkOp*> sinks;
        for (size_t i = 0; i < 3; ++i)
            sinks.push_back(&g.add<SinkOp>("s" + std::to_string(i),
                                           bc.out(i), true));
        (void)g.run();
        for (size_t e = 0; e < 2; ++e) {
            const Value& v0 = sinks[0]->tokens()[e].value();
            EXPECT_FLOAT_EQ(v0.tupleElems()[1].tile().at(0, 0),
                            e == 0 ? 10.0f : 20.0f);
            for (size_t i = 1; i < 3; ++i)
                EXPECT_EQ(&sinks[i]->tokens()[e].value().tupleElems(),
                          &v0.tupleElems());
        }
    }
    // Both zipped elements' nodes are parked once the sinks let go.
    EXPECT_EQ(TuplePool::stats().cached, 2u);
    TuplePool::trim();
}

TEST(TuplePool, NestedTuplesRecycleEveryNode)
{
    TuplePool::trim();
    {
        Value inner = Value::tuple({test::val(1), test::val(2)});
        Value outer = Value::tuple({inner, test::val(3)});
        inner = Value(Tile(1, 1));
        EXPECT_FLOAT_EQ(
            outer.tupleElems()[0].tupleElems()[1].tile().at(0, 0), 2.0f);
    }
    EXPECT_EQ(TuplePool::stats().cached, 2u);
    TuplePool::trim();
    EXPECT_EQ(TuplePool::stats().cached, 0u);
}

TEST(TuplePool, CacheIsBounded)
{
    TuplePool::trim();
    {
        std::vector<Value> live;
        for (uint32_t i = 0; i < TuplePool::kMaxCached + 10; ++i)
            live.push_back(Value::tuple({test::val(1), test::val(2)}));
    }
    EXPECT_EQ(TuplePool::stats().cached, TuplePool::kMaxCached);

    // A node that grew past kMaxPooledElems goes back to the heap.
    TuplePool::trim();
    {
        Value wide = Value::tupleOf([](std::vector<Value>& out) {
            for (size_t i = 0; i <= TuplePool::kMaxPooledElems; ++i)
                out.push_back(test::val(static_cast<float>(i)));
        });
        EXPECT_EQ(wide.tupleElems().size(), TuplePool::kMaxPooledElems + 1);
    }
    EXPECT_EQ(TuplePool::stats().cached, 0u);
}

TEST(TuplePool, CrossThreadReleaseIsRaceFree)
{
    // Each producer builds tuples and hands them to its consumer, which
    // drops them: every node is built on one thread and recycled into
    // another thread's free list. All threads also copy and drop one
    // shared tuple, racing on its refcount. The ThreadSanitizer job
    // runs this; the checks below hold on any build.
    constexpr int kPairs = 2;
    constexpr int kTuples = 4000;
    const Value shared = Value::tuple({test::val(7), test::val(8)});

    struct Handoff
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Value> queue; // guarded by mu
        bool closed = false;     // guarded by mu
    };
    std::vector<Handoff> lanes(kPairs);
    std::vector<double> sums(kPairs, 0.0);
    std::vector<uint64_t> cachedAtEnd(kPairs, 0);
    std::vector<std::thread> threads;
    for (int p = 0; p < kPairs; ++p) {
        Handoff& lane = lanes[static_cast<size_t>(p)];
        threads.emplace_back([&lane, &shared] {
            for (int i = 0; i < kTuples; ++i) {
                Value copy = shared;
                Value v = Value::tuple(
                    {test::val(static_cast<float>(i)), test::val(1), copy});
                std::lock_guard<std::mutex> lk(lane.mu);
                lane.queue.push_back(std::move(v));
                lane.cv.notify_one();
            }
            std::lock_guard<std::mutex> lk(lane.mu);
            lane.closed = true;
            lane.cv.notify_one();
        });
        threads.emplace_back([&lane, &shared, &sums, &cachedAtEnd, p] {
            TuplePool::trim();
            double sum = 0.0;
            while (true) {
                Value v;
                {
                    std::unique_lock<std::mutex> lk(lane.mu);
                    lane.cv.wait(lk, [&lane] {
                        return !lane.queue.empty() || lane.closed;
                    });
                    if (lane.queue.empty())
                        break;
                    v = std::move(lane.queue.front());
                    lane.queue.pop_front();
                }
                Value copy = shared;
                sum += v.tupleElems()[0].tile().at(0, 0) +
                       v.tupleElems()[2].tupleElems()[1].tile().at(0, 0);
            }
            sums[static_cast<size_t>(p)] = sum;
            cachedAtEnd[static_cast<size_t>(p)] = TuplePool::stats().cached;
        });
    }
    for (std::thread& t : threads)
        t.join();
    const double expect = kTuples * (kTuples - 1) / 2.0 + 8.0 * kTuples;
    for (int p = 0; p < kPairs; ++p) {
        EXPECT_DOUBLE_EQ(sums[static_cast<size_t>(p)], expect);
        EXPECT_LE(cachedAtEnd[static_cast<size_t>(p)],
                  TuplePool::kMaxCached);
        EXPECT_GT(cachedAtEnd[static_cast<size_t>(p)], 0u);
    }
    EXPECT_FLOAT_EQ(shared.tupleElems()[0].tile().at(0, 0), 7.0f);
}

} // namespace
} // namespace step
