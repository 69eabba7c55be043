/**
 * @file
 * LPM trie tests, including a brute-force oracle property test.
 */

#include <gtest/gtest.h>

#include <map>

#include "net/lpm_trie.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::net;
using statsched::stats::Rng;

Route
route(Ipv4Address prefix, std::uint8_t len, std::uint16_t port)
{
    Route r;
    r.prefix = prefix;
    r.length = len;
    r.nextHop.egressPort = port;
    return r;
}

TEST(LpmTrie, EmptyTableMatchesNothing)
{
    LpmTrie trie;
    EXPECT_EQ(trie.size(), 0u);
    EXPECT_FALSE(trie.lookup(0x01020304).has_value());
}

TEST(LpmTrie, DefaultRouteMatchesEverything)
{
    LpmTrie trie;
    trie.insert(route(0, 0, 7));
    const auto hop = trie.lookup(0xdeadbeef);
    ASSERT_TRUE(hop.has_value());
    EXPECT_EQ(hop->egressPort, 7);
}

TEST(LpmTrie, LongestPrefixWins)
{
    LpmTrie trie;
    trie.insert(route(0, 0, 1));                    // default
    trie.insert(route(0x0a000000, 8, 2));           // 10/8
    trie.insert(route(0x0a010000, 16, 3));          // 10.1/16
    trie.insert(route(0x0a010200, 24, 4));          // 10.1.2/24

    EXPECT_EQ(trie.lookup(0xc0a80001)->egressPort, 1);
    EXPECT_EQ(trie.lookup(0x0a7f0001)->egressPort, 2);
    EXPECT_EQ(trie.lookup(0x0a01ff01)->egressPort, 3);
    EXPECT_EQ(trie.lookup(0x0a010203)->egressPort, 4);
}

TEST(LpmTrie, HostRoutes)
{
    LpmTrie trie;
    trie.insert(route(0x0a010203, 32, 9));
    EXPECT_EQ(trie.lookup(0x0a010203)->egressPort, 9);
    EXPECT_FALSE(trie.lookup(0x0a010204).has_value());
}

TEST(LpmTrie, InsertReplacesAndCounts)
{
    LpmTrie trie;
    EXPECT_FALSE(trie.insert(route(0x0a000000, 8, 1)));
    EXPECT_TRUE(trie.insert(route(0x0a000000, 8, 2)));
    EXPECT_EQ(trie.size(), 1u);
    EXPECT_EQ(trie.lookup(0x0a000001)->egressPort, 2);
}

TEST(LpmTrie, RemoveRestoresShorterMatch)
{
    LpmTrie trie;
    trie.insert(route(0x0a000000, 8, 1));
    trie.insert(route(0x0a010000, 16, 2));
    EXPECT_EQ(trie.lookup(0x0a010001)->egressPort, 2);
    EXPECT_TRUE(trie.remove(0x0a010000, 16));
    EXPECT_EQ(trie.lookup(0x0a010001)->egressPort, 1);
    EXPECT_FALSE(trie.remove(0x0a010000, 16));
    EXPECT_EQ(trie.size(), 1u);
}

TEST(LpmTrie, FindExact)
{
    LpmTrie trie;
    trie.insert(route(0x0a000000, 8, 1));
    ASSERT_TRUE(trie.find(0x0a000000, 8).has_value());
    EXPECT_FALSE(trie.find(0x0a000000, 9).has_value());
    EXPECT_EQ(trie.find(0x0a000000, 8)->toString(), "10.0.0.0/8");
}

TEST(LpmTrie, DumpIsSortedAndComplete)
{
    LpmTrie trie;
    trie.insert(route(0xc0a80000, 16, 1));
    trie.insert(route(0x0a000000, 8, 2));
    trie.insert(route(0, 0, 3));
    const auto routes = trie.dump();
    ASSERT_EQ(routes.size(), 3u);
    EXPECT_EQ(routes[0].length, 0);
    EXPECT_EQ(routes[1].prefix, 0x0a000000u);
    EXPECT_EQ(routes[2].prefix, 0xc0a80000u);
}

TEST(LpmTrie, MatchesBruteForceOracle)
{
    Rng rng(55);
    LpmTrie trie;
    std::vector<Route> routes;

    // Random route set over a few /8 blocks with varied lengths.
    for (int i = 0; i < 300; ++i) {
        const std::uint8_t len =
            static_cast<std::uint8_t>(rng.uniformInt(25));
        const Ipv4Address mask = len == 0
            ? 0 : ~((1u << (32 - len)) - 1);
        const Ipv4Address prefix =
            (static_cast<Ipv4Address>(rng.next()) & mask) &
            0x3fffffff;
        Route r = route(prefix & mask, len,
                        static_cast<std::uint16_t>(i));
        // Skip duplicates (insert would replace; oracle keeps last).
        trie.insert(r);
        bool replaced = false;
        for (auto &existing : routes) {
            if (existing.prefix == r.prefix &&
                existing.length == r.length) {
                existing = r;
                replaced = true;
            }
        }
        if (!replaced)
            routes.push_back(r);
    }

    auto oracle = [&routes](Ipv4Address addr)
        -> std::optional<std::uint16_t> {
        int best_len = -1;
        std::uint16_t best_port = 0;
        for (const auto &r : routes) {
            const Ipv4Address mask = r.length == 0
                ? 0 : ~((1u << (32 - r.length)) - 1);
            if ((addr & mask) == r.prefix &&
                static_cast<int>(r.length) > best_len) {
                best_len = r.length;
                best_port = r.nextHop.egressPort;
            }
        }
        if (best_len < 0)
            return std::nullopt;
        return best_port;
    };

    for (int i = 0; i < 3000; ++i) {
        const Ipv4Address addr =
            static_cast<Ipv4Address>(rng.next()) & 0x3fffffff;
        const auto expected = oracle(addr);
        const auto actual = trie.lookup(addr);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << addr;
        if (expected) {
            EXPECT_EQ(actual->egressPort, *expected) << addr;
        }
    }
}

} // anonymous namespace
