// Tests for the Fig 4 block cache: chained entries, O(1) appends, per-
// buffer free lists, buffer exhaustion, and a randomized property check
// against a reference map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>

#include "segmentstore/cache.h"
#include "sim/random.h"

namespace pravega::segmentstore {
namespace {

BlockCache::Config smallConfig() {
    BlockCache::Config cfg;
    cfg.blockSize = 64;
    cfg.blocksPerBuffer = 8;
    cfg.maxBuffers = 4;
    return cfg;
}

Bytes pattern(size_t n, uint8_t seed = 1) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i * 31);
    return out;
}

TEST(BlockCacheTest, InsertAndGetSmallEntry) {
    BlockCache cache(smallConfig());
    Bytes data = pattern(10);
    auto addr = cache.insert(BufChain(data));
    ASSERT_TRUE(addr.isOk());
    EXPECT_EQ(cache.get(addr.value()).value(), data);
    EXPECT_EQ(cache.entryLength(addr.value()).value(), 10u);
    EXPECT_EQ(cache.usedBlocks(), 1u);
}

TEST(BlockCacheTest, EntrySpanningMultipleBlocks) {
    BlockCache cache(smallConfig());
    Bytes data = pattern(200);  // 4 blocks at 64B
    auto addr = cache.insert(BufChain(data));
    ASSERT_TRUE(addr.isOk());
    EXPECT_EQ(cache.get(addr.value()).value(), data);
    EXPECT_EQ(cache.usedBlocks(), 4u);
}

TEST(BlockCacheTest, AppendFillsLastBlockFirst) {
    BlockCache cache(smallConfig());
    auto addr = cache.insert(BufChain(pattern(10))).value();
    auto addr2 = cache.append(addr, BufChain(pattern(20, 99)));
    ASSERT_TRUE(addr2.isOk());
    // 30 bytes fit in one 64B block: address must be unchanged (O(1) append
    // into the last block, the Fig 4 design point).
    EXPECT_EQ(addr2.value(), addr);
    EXPECT_EQ(cache.usedBlocks(), 1u);
    EXPECT_EQ(cache.entryLength(addr).value(), 30u);
}

TEST(BlockCacheTest, AppendChainsNewBlocksAndMovesAddress) {
    BlockCache cache(smallConfig());
    auto addr = cache.insert(BufChain(pattern(60))).value();
    auto addr2 = cache.append(addr, BufChain(pattern(10, 7))).value();
    EXPECT_NE(addr2, addr);  // a second block was chained
    Bytes expected = pattern(60);
    Bytes tail = pattern(10, 7);
    expected.insert(expected.end(), tail.begin(), tail.end());
    EXPECT_EQ(cache.get(addr2).value(), expected);
    // The OLD address no longer identifies the entry's last block; reading
    // it yields only the prefix chain, which is by design (the read index
    // always stores the latest address).
    EXPECT_EQ(cache.get(addr).value().size(), 64u);
}

TEST(BlockCacheTest, ManyAppendsAccumulate) {
    BlockCache cache(smallConfig());
    auto addr = cache.insert(BufChain(pattern(1))).value();
    Bytes expected = pattern(1);
    for (int i = 0; i < 50; ++i) {
        Bytes piece = pattern(7, static_cast<uint8_t>(i));
        expected.insert(expected.end(), piece.begin(), piece.end());
        auto r = cache.append(addr, BufChain(piece));
        ASSERT_TRUE(r.isOk());
        addr = r.value();
    }
    EXPECT_EQ(cache.get(addr).value(), expected);
}

TEST(BlockCacheTest, RangedGetMatchesSliceOfWholeEntry) {
    BlockCache cache(smallConfig());
    // Appends that straddle blocks leave them unevenly filled.
    auto addr = cache.insert(BufChain(pattern(50))).value();
    Bytes whole = pattern(50);
    for (size_t n : {30u, 5u, 90u}) {
        Bytes piece = pattern(n, static_cast<uint8_t>(n));
        whole.insert(whole.end(), piece.begin(), piece.end());
        addr = cache.append(addr, BufChain(piece)).value();
    }
    ASSERT_EQ(cache.get(addr).value(), whole);
    for (uint64_t off = 0; off <= whole.size() + 2; ++off) {
        for (uint64_t len : {uint64_t{0}, uint64_t{1}, uint64_t{13}, uint64_t{64}, uint64_t{65},
                             uint64_t{200}, UINT64_MAX}) {
            const size_t from = std::min<size_t>(off, whole.size());
            const size_t n = static_cast<size_t>(std::min<uint64_t>(len, whole.size() - from));
            Bytes want(whole.begin() + static_cast<std::ptrdiff_t>(from),
                       whole.begin() + static_cast<std::ptrdiff_t>(from + n));
            EXPECT_EQ(cache.get(addr, off, len).value(), want) << off << "+" << len;
        }
    }
}

TEST(BlockCacheTest, RemoveFreesAllBlocks) {
    BlockCache cache(smallConfig());
    auto addr = cache.insert(BufChain(pattern(300))).value();
    EXPECT_GT(cache.usedBlocks(), 0u);
    EXPECT_TRUE(cache.remove(addr).isOk());
    EXPECT_EQ(cache.usedBlocks(), 0u);
    EXPECT_EQ(cache.storedBytes(), 0u);
    EXPECT_EQ(cache.get(addr).code(), Err::InvalidArgument);
}

TEST(BlockCacheTest, FreedBlocksAreReused) {
    auto cfg = smallConfig();
    cfg.maxBuffers = 1;  // 8 blocks total
    BlockCache cache(cfg);
    for (int round = 0; round < 10; ++round) {
        auto addr = cache.insert(BufChain(pattern(64 * 8)));  // fills the buffer
        ASSERT_TRUE(addr.isOk()) << "round " << round;
        EXPECT_EQ(cache.usedBlocks(), 8u);
        cache.remove(addr.value());
    }
}

TEST(BlockCacheTest, CacheFullWhenAllBuffersExhausted) {
    auto cfg = smallConfig();  // 4 buffers × 8 blocks × 64B = 2 KB
    BlockCache cache(cfg);
    auto big = cache.insert(BufChain(pattern(64 * 8 * 4)));
    ASSERT_TRUE(big.isOk());
    auto more = cache.insert(BufChain(pattern(1)));
    EXPECT_EQ(more.code(), Err::CacheFull);
    cache.remove(big.value());
    EXPECT_TRUE(cache.insert(BufChain(pattern(1))).isOk());
}

BufChain fragments(std::initializer_list<size_t> sizes) {
    BufChain out;
    uint8_t seed = 1;
    for (size_t n : sizes) out.append(pattern(n, seed++));
    return out;
}

TEST(BlockCacheTest, MultiFragmentInsertThatRunsOutLeavesCacheUnchanged) {
    BlockCache cache(smallConfig());  // 32 blocks
    ASSERT_TRUE(cache.insert(BufChain(pattern(64 * 20))).isOk());
    const uint32_t blocks = cache.usedBlocks();
    const uint64_t bytes = cache.storedBytes();
    // Three fragments of five blocks each; only twelve blocks are free.
    auto r = cache.insert(fragments({64 * 5, 64 * 5, 64 * 5}));
    EXPECT_EQ(r.code(), Err::CacheFull);
    EXPECT_EQ(cache.usedBlocks(), blocks);
    EXPECT_EQ(cache.storedBytes(), bytes);
}

TEST(BlockCacheTest, MultiFragmentAppendThatRunsOutKeepsToppedUpEntry) {
    BlockCache cache(smallConfig());  // 32 blocks
    auto addr = cache.insert(BufChain(pattern(10))).value();
    ASSERT_TRUE(cache.insert(BufChain(pattern(64 * 29))).isOk());
    ASSERT_EQ(cache.usedBlocks(), 30u);
    const uint64_t bytes = cache.storedBytes();
    // The first fragment tops up the entry's block and chains one more;
    // the second needs four more blocks, and only one is left.
    auto r = cache.append(addr, fragments({100, 200}));
    EXPECT_EQ(r.code(), Err::CacheFull);
    EXPECT_EQ(cache.usedBlocks(), 30u);
    EXPECT_EQ(cache.entryLength(addr).value(), 64u);
    EXPECT_EQ(cache.storedBytes(), bytes + 54);
}

TEST(BlockCacheTest, BuffersAllocatedLazily) {
    BlockCache cache(smallConfig());
    EXPECT_EQ(cache.allocatedBuffers(), 0u);
    cache.insert(BufChain(pattern(1)));
    EXPECT_EQ(cache.allocatedBuffers(), 1u);
    cache.insert(BufChain(pattern(64 * 8)));  // overflows into buffer 2
    EXPECT_EQ(cache.allocatedBuffers(), 2u);
}

TEST(BlockCacheTest, UtilizationTracksUsedBlocks) {
    auto cfg = smallConfig();  // 32 blocks max
    BlockCache cache(cfg);
    EXPECT_DOUBLE_EQ(cache.utilization(), 0.0);
    cache.insert(BufChain(pattern(64 * 16)));
    EXPECT_DOUBLE_EQ(cache.utilization(), 0.5);
}

TEST(BlockCacheTest, EmptyInsertOccupiesOneBlock) {
    BlockCache cache(smallConfig());
    auto addr = cache.insert(BufChain());
    ASSERT_TRUE(addr.isOk());
    EXPECT_EQ(cache.entryLength(addr.value()).value(), 0u);
    EXPECT_EQ(cache.usedBlocks(), 1u);
}

TEST(BlockCacheTest, InvalidAddressRejected) {
    BlockCache cache(smallConfig());
    EXPECT_EQ(cache.get(kInvalidAddress).code(), Err::InvalidArgument);
    EXPECT_EQ(cache.get(12345).code(), Err::InvalidArgument);
    EXPECT_EQ(cache.append(777, BufChain()).code(), Err::InvalidArgument);
    EXPECT_EQ(cache.remove(1).code(), Err::InvalidArgument);
}

// Property test: random insert/append/remove against a reference map.
class BlockCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockCachePropertyTest, MatchesReferenceModel) {
    BlockCache::Config cfg;
    cfg.blockSize = 32;
    cfg.blocksPerBuffer = 16;
    cfg.maxBuffers = 4096;  // ample: appends must never hit CacheFull here
    BlockCache cache(cfg);
    sim::Rng rng(GetParam());

    std::map<CacheAddress, Bytes> reference;
    for (int op = 0; op < 2000; ++op) {
        uint64_t dice = rng.nextBounded(10);
        if (dice < 4 || reference.empty()) {
            Bytes data(rng.nextBounded(100));
            for (auto& b : data) b = static_cast<uint8_t>(rng.next());
            auto addr = cache.insert(BufChain(data));
            if (addr.isOk()) {
                reference[addr.value()] = std::move(data);
            } else {
                ASSERT_EQ(addr.code(), Err::CacheFull);
            }
        } else if (dice < 7) {
            size_t idx = rng.nextBounded(reference.size());
            auto it = std::next(reference.begin(), static_cast<long>(idx));
            Bytes extra(rng.nextBounded(80));
            for (auto& b : extra) b = static_cast<uint8_t>(rng.next());
            auto newAddr = cache.append(it->first, BufChain(extra));
            if (newAddr.isOk()) {
                Bytes combined = it->second;
                combined.insert(combined.end(), extra.begin(), extra.end());
                reference.erase(it);
                reference[newAddr.value()] = std::move(combined);
            }
        } else {
            size_t idx = rng.nextBounded(reference.size());
            auto it = std::next(reference.begin(), static_cast<long>(idx));
            ASSERT_TRUE(cache.remove(it->first).isOk());
            reference.erase(it);
        }
    }
    // Every surviving entry must read back exactly.
    uint64_t totalBytes = 0;
    for (const auto& [addr, data] : reference) {
        auto got = cache.get(addr);
        ASSERT_TRUE(got.isOk());
        EXPECT_EQ(got.value(), data);
        totalBytes += data.size();
    }
    EXPECT_EQ(cache.storedBytes(), totalBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockCachePropertyTest,
                         ::testing::Values(1, 7, 13, 99, 12345, 777777));

}  // namespace
}  // namespace pravega::segmentstore
