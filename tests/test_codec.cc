/**
 * @file
 * Tests of the stop-token protocol: encode/decode round trips, the
 * paper's example streams, stop coalescing (and the coalescer's inline
 * result), empty groups, and well-formedness checking.
 */
#include <gtest/gtest.h>

#include "support/rng.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::leaf;
using test::list;
using test::vec;

TEST(Codec, PaperExampleOne)
{
    // Example (1): 1,2,S1,3,S2,4,S1,5,6,7,S2,D with shape [2,2,D0].
    Nested n = list({list({vec({1, 2}), vec({3})}),
                     list({vec({4}), vec({5, 6, 7})})});
    auto toks = encodeNested(n, 3);
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, Tile[1x1]{3}, S2, "
              "Tile[1x1]{4}, S1, Tile[1x1]{5}, Tile[1x1]{6}, "
              "Tile[1x1]{7}, S2, D");
}

TEST(Codec, Rank1StreamHasNoStops)
{
    auto toks = encodeNested(vec({1, 2, 3}), 1);
    EXPECT_EQ(toks.size(), 4u);
    EXPECT_TRUE(toks[3].isDone());
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(toks[static_cast<size_t>(i)].isData());
}

TEST(Codec, Rank2EndsWithS1Done)
{
    auto toks = encodeNested(list({vec({1, 2}), vec({3, 4})}), 2);
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_TRUE(toks[2].isStop());
    EXPECT_EQ(toks[2].level(), 1u);
    EXPECT_TRUE(toks[5].isStop());
    EXPECT_EQ(toks[5].level(), 1u);
    EXPECT_TRUE(toks[6].isDone());
}

TEST(Codec, EmptyStreamIsJustDone)
{
    auto toks = encodeNested(Nested::list({}), 3);
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_TRUE(toks[0].isDone());
}

TEST(Codec, EmptyMiddleGroupEncodesAdjacentStops)
{
    // [2 elements][empty][1 element] at rank 2.
    Nested n = list({vec({1, 2}), vec({}), vec({3})});
    auto toks = encodeNested(n, 2);
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, S1, Tile[1x1]{3}, S1, D");
    Nested back = decodeNested(toks, 2);
    ASSERT_EQ(back.children().size(), 3u);
    EXPECT_EQ(back.children()[1].children().size(), 0u);
}

TEST(Codec, TrailingEmptyGroupSurvivesRoundTrip)
{
    Nested n = list({list({vec({1, 2}), vec({})})});
    auto toks = encodeNested(n, 3);
    // The empty trailing vector's S1 upgrades to S2 (highest-stop rule);
    // decode still reconstructs the empty vector.
    EXPECT_EQ(tokensToString(toks),
              "Tile[1x1]{1}, Tile[1x1]{2}, S1, S2, D");
    Nested back = decodeNested(toks, 3);
    ASSERT_EQ(back.children().size(), 1u);
    ASSERT_EQ(back.children()[0].children().size(), 2u);
    EXPECT_EQ(back.children()[0].children()[1].children().size(), 0u);
}

TEST(Codec, RaggedRoundTrip)
{
    Nested n = list({vec({1}), vec({2, 3, 4}), vec({}), vec({5, 6})});
    auto toks = encodeNested(n, 2);
    Nested back = decodeNested(toks, 2);
    ASSERT_EQ(back.children().size(), 4u);
    EXPECT_EQ(test::leavesOf(back),
              (std::vector<float>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(back.children()[2].children().size(), 0u);
}

TEST(Codec, CoalescerUpgradesNestedEnds)
{
    StopCoalescer c;
    std::vector<Token> out;
    auto push = [&](auto&& ts) {
        for (auto& t : ts)
            out.push_back(std::move(t));
    };
    push(c.onData(test::val(1)));
    push(c.onStop(1));
    push(c.onStop(2)); // upgrades the pending S1
    push(c.onDone());
    EXPECT_EQ(tokensToString(out), "Tile[1x1]{1}, S2, D");
}

TEST(Codec, CoalescerKeepsEmptyGroups)
{
    StopCoalescer c;
    std::vector<Token> out;
    auto push = [&](auto&& ts) {
        for (auto& t : ts)
            out.push_back(std::move(t));
    };
    push(c.onStop(1));
    push(c.onStop(1)); // same level: flushes the first (empty group)
    push(c.onData(test::val(1)));
    push(c.onDone());
    EXPECT_EQ(tokensToString(out), "S1, S1, Tile[1x1]{1}, D");
}

TEST(Codec, CoalescerEmitMovesOwnTheirTokens)
{
    // An Emit constructs only the tokens it holds; moving one hands them
    // over and move-assigning drops the tokens it held before.
    StopCoalescer c;
    const Tile big = Tile::withData(1, 5, {1, 2, 3, 4, 5});
    EXPECT_TRUE(c.onStop(1).empty());
    StopCoalescer::Emit e = c.onData(big);
    ASSERT_EQ(e.size(), 2u);
    StopCoalescer::Emit moved = std::move(e);
    EXPECT_TRUE(e.empty());
    ASSERT_EQ(moved.size(), 2u);
    EXPECT_TRUE(moved[0].isStop());
    EXPECT_EQ(moved[1].value().tile().ptr(), big.ptr()); // shared payload
    moved = c.onDone();
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_TRUE(moved[0].isDone());
    EXPECT_FLOAT_EQ(big.at(0, 4), 5.0f);
}

TEST(Codec, WellFormedAcceptsValid)
{
    auto toks = encodeNested(list({vec({1}), vec({2, 3})}), 2);
    EXPECT_FALSE(checkWellFormed(toks, 2).has_value());
}

TEST(Codec, WellFormedRejectsBadLevels)
{
    std::vector<Token> toks{Token::data(test::val(1)), Token::stop(3),
                            Token::done()};
    EXPECT_TRUE(checkWellFormed(toks, 2).has_value());
}

TEST(Codec, WellFormedRejectsMissingDone)
{
    std::vector<Token> toks{Token::data(test::val(1))};
    EXPECT_TRUE(checkWellFormed(toks, 1).has_value());
}

TEST(Codec, WellFormedRejectsUnclosedDims)
{
    // rank 3 stream whose data is never closed by S2.
    std::vector<Token> toks{Token::data(test::val(1)), Token::stop(1),
                            Token::done()};
    EXPECT_TRUE(checkWellFormed(toks, 3).has_value());
}

TEST(Codec, WellFormedRejectsTokenAfterDone)
{
    std::vector<Token> toks{Token::done(), Token::data(test::val(1))};
    EXPECT_TRUE(checkWellFormed(toks, 1).has_value());
}

/** Round-trip property over pseudo-random ragged trees. */
class CodecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

namespace {

Nested
randomTree(Rng& rng, size_t depth, float& counter)
{
    if (depth == 0)
        return leaf(counter++);
    size_t n = rng.uniformInt(4); // 0..3 children
    std::vector<Nested> kids;
    for (size_t i = 0; i < n; ++i)
        kids.push_back(randomTree(rng, depth - 1, counter));
    return Nested::list(std::move(kids));
}

} // namespace

TEST_P(CodecRoundTrip, EncodeDecodeIdentity)
{
    Rng rng(GetParam());
    for (size_t rank = 1; rank <= 4; ++rank) {
        float counter = 1.0f;
        Nested n = randomTree(rng, rank, counter);
        auto toks = encodeNested(n, rank);
        ASSERT_FALSE(checkWellFormed(toks, rank).has_value())
            << tokensToString(toks);
        Nested back = decodeNested(toks, rank);
        EXPECT_EQ(test::leavesOf(back), test::leavesOf(n));
        // Group counts at the top level must survive unless trailing
        // groups were entirely empty (those are preserved too).
        EXPECT_EQ(back.children().size(), n.children().size())
            << "rank " << rank << ": " << tokensToString(toks);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
} // namespace step
