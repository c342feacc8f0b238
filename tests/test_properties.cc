/**
 * @file
 * Property-based tests of the shape semantics: for randomized operator
 * pipelines and randomized ragged inputs, the symbolic shape declared by
 * shape inference must agree with the observed token stream — same
 * rank, and equal extents wherever the inferred dimension is static.
 * Also checks stream conservation laws (Partition/Reassemble round
 * trips preserve multisets; EagerMerge preserves chunk contents), and
 * that the stream views (shape operators folded into channels) deliver
 * exactly the token stream of the operators they replace.
 */
#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/rng.hh"
#include "verify/verifier.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::leavesOf;
using test::scalarTile;

/** Observed extents: for each depth, the set of group sizes. */
void
observedExtents(const Nested& n, size_t depth,
                std::vector<std::set<size_t>>& per_level)
{
    if (n.isLeaf())
        return;
    per_level[depth].insert(n.children().size());
    for (const auto& c : n.children())
        observedExtents(c, depth + 1, per_level);
}

/**
 * Check a decoded stream against a symbolic shape: every static dim's
 * extent must equal the observed group size at that level (when any
 * group was observed; trailing-empty collapse makes sizes of absent
 * groups unobservable).
 */
void
checkShapeAgainstStream(const StreamShape& shape,
                        const std::vector<Token>& toks)
{
    size_t rank = shape.rank();
    ASSERT_FALSE(checkWellFormed(toks, rank).has_value())
        << tokensToString(toks);
    if (countData(toks) == 0)
        return; // empty stream: no extents observable
    Nested n = decodeNested(toks, rank);
    std::vector<std::set<size_t>> per_level(rank + 1);
    per_level[0].insert(n.children().size());
    for (const auto& c : n.children())
        observedExtents(c, 1, per_level);
    for (size_t lvl = 0; lvl < rank; ++lvl) {
        const Dim& d = shape.outer(lvl);
        if (!d.isStatic() || per_level[lvl].empty())
            continue;
        auto expect = static_cast<size_t>(d.size.eval({}));
        for (size_t got : per_level[lvl]) {
            // Empty groups are unattributable: a collapsed ragged/empty
            // ancestor shows up as a zero-sized group at this level in
            // the stop-token encoding. Only nonzero extents must match.
            if (got == 0)
                continue;
            EXPECT_EQ(got, expect)
                << "level " << lvl << " of " << shape.toString() << ": "
                << tokensToString(toks);
        }
    }
}

/** Random ragged tensor with exact static outer dims where given. */
Nested
randomNested(Rng& rng, const std::vector<int64_t>& dims, size_t level,
             float& counter)
{
    if (level == dims.size())
        return Nested(test::val(counter++));
    int64_t n = dims[level] >= 0 ? dims[level]
                                 : static_cast<int64_t>(
                                       rng.uniformInt(4));
    std::vector<Nested> kids;
    for (int64_t i = 0; i < n; ++i)
        kids.push_back(randomNested(rng, dims, level + 1, counter));
    return Nested::list(std::move(kids));
}

class ShapeInference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapeInference, PipelineShapesMatchObservedStreams)
{
    Rng rng(GetParam());
    // Random source: 2-3 dims, mix of static and ragged.
    size_t rank = 2 + rng.uniformInt(2);
    std::vector<int64_t> concrete;
    std::vector<Dim> dims;
    for (size_t i = 0; i < rank; ++i) {
        if (rng.uniform() < 0.5) {
            int64_t s = 1 + static_cast<int64_t>(rng.uniformInt(3));
            concrete.push_back(s);
            dims.push_back(Dim::fixed(s));
        } else {
            concrete.push_back(-1); // ragged
            dims.push_back(Dim::ragged());
        }
    }
    float counter = 1.0f;
    Nested n = randomNested(rng, concrete, 0, counter);
    auto toks = encodeNested(n, rank);

    Graph g;
    StreamPort cur = g.add<SourceOp>("src", toks, StreamShape(dims),
                                     scalarTile()).out();
    // Random chain of shape operators.
    size_t n_ops = 1 + rng.uniformInt(3);
    for (size_t i = 0; i < n_ops; ++i) {
        std::string name = "op" + std::to_string(i);
        switch (rng.uniformInt(4)) {
          case 0: { // Flatten a random inner range
            if (cur.rank() < 2)
                break;
            size_t hi = 1 + rng.uniformInt(cur.rank() - 1);
            cur = g.add<FlattenOp>(name, cur, 0, hi).out();
            break;
          }
          case 1: // Promote
            cur = g.add<PromoteOp>(name, cur).out();
            break;
          case 2: // Repeat (adds a static inner dim)
            cur = g.add<RepeatOp>(
                name, cur,
                1 + static_cast<int64_t>(rng.uniformInt(3))).out();
            break;
          default: // ExpandStatic (widens the innermost dim)
            cur = g.add<ExpandStaticOp>(
                name, cur,
                1 + static_cast<int64_t>(rng.uniformInt(3))).out();
            break;
        }
    }
    auto& sink = g.add<SinkOp>("sink", cur, true);
    (void)g.run();
    checkShapeAgainstStream(cur.shape, sink.tokens());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeInference,
                         ::testing::Range<uint64_t>(1, 41));

/**
 * Random nested tensor whose innermost groups hold multiples of
 * @p inner elements (0, 1 or 2 of them, so empty groups occur) and
 * whose outer groups have 0-3 children.
 */
Nested
randomNestedMultiple(Rng& rng, size_t rank, size_t level, int64_t inner,
                     float& counter)
{
    if (level == rank)
        return Nested(test::val(counter++));
    const bool innermost = level + 1 == rank;
    const auto n = innermost
        ? inner * static_cast<int64_t>(rng.uniformInt(3))
        : static_cast<int64_t>(rng.uniformInt(4));
    std::vector<Nested> kids;
    for (int64_t i = 0; i < n; ++i)
        kids.push_back(
            randomNestedMultiple(rng, rank, level + 1, inner, counter));
    return Nested::list(std::move(kids));
}

/** One step of a random stop-level shape-op chain. */
struct ViewStep
{
    enum class Kind { Flatten, Chunk, Regroup } kind;
    size_t hi = 0;      ///< Flatten(0, hi)
    int64_t chunk = 1;  ///< Regroup
    bool pad = false;   ///< Regroup with a pad value
};

/** Shape rendering without the per-build ids of ragged dims. */
std::string
shapeKey(const StreamShape& s)
{
    static const std::regex ragged_id("R[0-9]+~");
    return std::regex_replace(s.toString(), ragged_id, "R~");
}

struct ViewRun
{
    std::vector<std::string> tokens;
    std::string shape;
    std::string verifyText;
    size_t errors = 0;
    size_t ops = 0;
};

ViewRun
runViewChain(const std::vector<Token>& input, size_t rank,
             const std::vector<ViewStep>& steps, bool chains)
{
    // Deep FIFOs: every operator of the chain drains its whole input in
    // one resume, so its coalescers see each next token queued.
    SimConfig sc;
    sc.channelCapacity = 4096;
    Graph g(sc);
    g.setShapeOpChains(chains);
    DimVec dims;
    for (size_t i = 0; i < rank; ++i)
        dims.push_back(Dim::ragged());
    StreamPort cur = g.add<SourceOp>("src", input, StreamShape(dims),
                                     scalarTile()).out();
    for (size_t i = 0; i < steps.size(); ++i) {
        const ViewStep& st = steps[i];
        const std::string name = "v" + std::to_string(i);
        switch (st.kind) {
          case ViewStep::Kind::Flatten:
            cur = flattenView(g, name, cur, 0, st.hi);
            break;
          case ViewStep::Kind::Chunk:
            cur = chunkView(g, name, cur);
            break;
          case ViewStep::Kind::Regroup:
            cur = regroupView(g, name, cur, st.chunk,
                              st.pad ? std::optional<Value>(test::val(-1))
                                     : std::nullopt);
            break;
        }
    }
    auto& sink = g.add<SinkOp>("sink", cur, true);
    const verify::VerifyReport report = g.verify(verify::VerifyOptions{});
    ViewRun r;
    r.shape = shapeKey(cur.shape);
    r.verifyText = report.toText();
    r.errors = report.errors();
    r.ops = g.ops().size();
    (void)g.run();
    for (const Token& t : sink.tokens())
        r.tokens.push_back(t.toString());
    if (!chains) {
        const dam::Channel& ch = *cur.ch;
        EXPECT_EQ(shapeKey(viewedShape(ch, StreamShape(dims))), r.shape);
    }
    return r;
}

class ViewOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewOracle, FoldedChainDeliversTheOperatorChainsTokens)
{
    Rng rng(GetParam() * 7919 + 17);
    const size_t rank = 1 + rng.uniformInt(3);
    // Every innermost group size is a multiple of `inner`, so pad-free
    // regroups by a divisor of it are valid.
    int64_t inner = 1 + static_cast<int64_t>(rng.uniformInt(3));
    float counter = 1.0f;
    const Nested n = randomNestedMultiple(rng, rank, 0, inner, counter);
    const std::vector<Token> input = encodeNested(n, rank);

    std::vector<ViewStep> steps;
    size_t cur_rank = rank;
    const size_t n_steps = 1 + rng.uniformInt(4);
    for (size_t i = 0; i < n_steps; ++i) {
        ViewStep st{};
        const uint64_t pick = rng.uniformInt(3);
        if (pick == 0 && cur_rank >= 2) {
            st.kind = ViewStep::Kind::Flatten;
            st.hi = 1 + rng.uniformInt(cur_rank - 1);
            cur_rank -= st.hi;
        } else if (pick == 1) {
            st.kind = ViewStep::Kind::Chunk;
            ++cur_rank;
            inner = 1;
        } else {
            st.kind = ViewStep::Kind::Regroup;
            st.pad = rng.uniformInt(2) == 0;
            if (st.pad) {
                st.chunk = 1 + static_cast<int64_t>(rng.uniformInt(3));
            } else {
                std::vector<int64_t> divisors;
                for (int64_t c = 1; c <= inner; ++c)
                    if (inner % c == 0)
                        divisors.push_back(c);
                st.chunk = divisors[rng.uniformInt(divisors.size())];
            }
            ++cur_rank;
            inner = st.chunk;
        }
        steps.push_back(st);
    }

    const ViewRun ops = runViewChain(input, rank, steps, true);
    const ViewRun views = runViewChain(input, rank, steps, false);
    EXPECT_EQ(views.tokens, ops.tokens);
    EXPECT_EQ(views.shape, ops.shape);
    EXPECT_EQ(ops.errors, 0u) << ops.verifyText;
    EXPECT_EQ(views.errors, 0u) << views.verifyText;
    // Folding creates no operator: only the source and the sink remain.
    EXPECT_EQ(views.ops, 2u);
    EXPECT_EQ(ops.ops, 2u + steps.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewOracle,
                         ::testing::Range<uint64_t>(1, 61));

class RoutingConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingConservation, PartitionReassembleIsIdentity)
{
    Rng rng(GetParam());
    const auto n_rows =
        static_cast<int64_t>(4 + rng.uniformInt(12));
    const size_t n_out = 2 + rng.uniformInt(3);

    std::vector<Nested> rows;
    std::vector<Token> sels;
    for (int64_t i = 0; i < n_rows; ++i) {
        rows.push_back(test::vec(
            {static_cast<float>(i + 1)}));
        sels.push_back(Token::data(Selector::oneHot(
            static_cast<uint32_t>(rng.uniformInt(n_out)))));
    }
    sels.push_back(Token::done());

    // FIFO sizing discipline (DESIGN.md): channels between Partition
    // and Reassemble must cover the rows in flight per output.
    SimConfig sc;
    sc.channelCapacity = static_cast<size_t>(n_rows) + 8;
    Graph g(sc);
    auto& in = g.add<SourceOp>(
        "in", encodeNested(Nested::list(rows), 2),
        StreamShape({Dim::fixed(n_rows), Dim::fixed(1)}), scalarTile());
    auto& sa = g.add<SourceOp>("sa", sels,
                               StreamShape({Dim::fixed(n_rows)}),
                               DataType::selector(
                                   static_cast<int64_t>(n_out)));
    auto& sb = g.add<SourceOp>("sb", sels,
                               StreamShape({Dim::fixed(n_rows)}),
                               DataType::selector(
                                   static_cast<int64_t>(n_out)));
    auto& part = g.add<PartitionOp>("p", in.out(), sa.out(), 1, n_out);
    std::vector<StreamPort> outs;
    for (size_t i = 0; i < n_out; ++i)
        outs.push_back(part.out(i));
    auto& re = g.add<ReassembleOp>("r", outs, sb.out(), 1);
    auto& sink = g.add<SinkOp>("sink", re.out(), true);
    (void)g.run();

    Nested out = decodeNested(sink.tokens(), 3);
    std::vector<float> got = leavesOf(out);
    std::vector<float> expect;
    for (int64_t i = 0; i < n_rows; ++i)
        expect.push_back(static_cast<float>(i + 1));
    EXPECT_EQ(got, expect) << "round trip must preserve order";
    EXPECT_EQ(out.children().size(), static_cast<size_t>(n_rows));
}

TEST_P(RoutingConservation, EagerMergePreservesChunkMultiset)
{
    Rng rng(GetParam() + 1000);
    const size_t n_in = 2 + rng.uniformInt(3);
    Graph g;
    std::vector<StreamPort> ins;
    std::multiset<float> expect;
    float v = 1.0f;
    for (size_t i = 0; i < n_in; ++i) {
        std::vector<Nested> chunks;
        size_t n_chunks = rng.uniformInt(4);
        for (size_t c = 0; c < n_chunks; ++c) {
            chunks.push_back(test::vec({v}));
            expect.insert(v);
            v += 1.0f;
        }
        ins.push_back(g.add<SourceOp>(
            "in" + std::to_string(i),
            encodeNested(Nested::list(chunks), 2),
            StreamShape({Dim::ragged(), Dim::ragged()}),
            scalarTile()).out());
    }
    auto& em = g.add<EagerMergeOp>("em", ins, 1);
    auto& dsink = g.add<SinkOp>("d", em.out(), true);
    auto& ssink = g.add<SinkOp>("s", em.selOut(), true);
    (void)g.run();
    auto vals = leavesOf(decodeNested(dsink.tokens(), 2));
    std::multiset<float> got(vals.begin(), vals.end());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(ssink.dataCount(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingConservation,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace step
