// Tests for the read index: tail appends through the block cache, cache
// misses reported for LTS fetch, truncation, and generation-based eviction
// that never evicts data not yet durable in LTS.
#include <gtest/gtest.h>

#include "segmentstore/read_index.h"

namespace pravega::segmentstore {
namespace {

Bytes seq(size_t n, uint8_t base = 0) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(base + i);
    return out;
}

struct ReadIndexFixture : public ::testing::Test {
    BlockCache::Config cacheCfg() {
        BlockCache::Config cfg;
        cfg.blockSize = 64;
        cfg.blocksPerBuffer = 8;
        cfg.maxBuffers = 16;  // 8 KB cache
        return cfg;
    }
    ReadIndex::Config riCfg() {
        ReadIndex::Config cfg;
        cfg.maxEntryLength = 256;
        return cfg;
    }

    BlockCache cache{cacheCfg()};
    ReadIndex index{cache, ReadIndex::Config{256, 0.80, 0.50}};
    static constexpr SegmentId kSeg = 42;

    void SetUp() override { index.addSegment(kSeg); }
};

TEST_F(ReadIndexFixture, AppendThenReadHit) {
    Bytes data = seq(100);
    ASSERT_TRUE(index.append(kSeg, 0, BufChain(data)).isOk());
    auto outcome = index.read(kSeg, 0, 1000, 100, 0);
    ASSERT_TRUE(outcome.isOk());
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.toBytes(), data);
}

TEST_F(ReadIndexFixture, ReadFromMiddleOffset) {
    Bytes data = seq(100);
    ASSERT_TRUE(index.append(kSeg, 0, BufChain(data)).isOk());
    auto outcome = index.read(kSeg, 40, 20, 100, 0);
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.toBytes(), Bytes(data.begin() + 40, data.begin() + 60));
}

TEST_F(ReadIndexFixture, ContiguousAppendsExtendLastEntry) {
    ASSERT_TRUE(index.append(kSeg, 0, BufChain(seq(50))).isOk());
    ASSERT_TRUE(index.append(kSeg, 50, BufChain(seq(50, 50))).isOk());
    EXPECT_EQ(index.entryCount(), 1u);  // one extended entry, O(1) appends
    auto outcome = index.read(kSeg, 0, 100, 100, 0);
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.size(), 100u);
    EXPECT_EQ(hit->data.toBytes(), seq(100));
}

TEST_F(ReadIndexFixture, EntriesSplitAtMaxLength) {
    ASSERT_TRUE(index.append(kSeg, 0, BufChain(seq(250))).isOk());
    ASSERT_TRUE(index.append(kSeg, 250, BufChain(seq(250))).isOk());
    EXPECT_GE(index.entryCount(), 2u);
}

TEST_F(ReadIndexFixture, AtTailSignalled) {
    index.append(kSeg, 0, BufChain(seq(10)));
    auto outcome = index.read(kSeg, 10, 100, 10, 0);
    ASSERT_TRUE(outcome.isOk());
    EXPECT_TRUE(std::holds_alternative<ReadAtTail>(outcome.value()));
}

TEST_F(ReadIndexFixture, MissReportedForEvictedPrefix) {
    // Simulate data that lives only in LTS: nothing indexed yet, segment
    // length 1000.
    auto outcome = index.read(kSeg, 0, 100, 1000, 0);
    ASSERT_TRUE(outcome.isOk());
    auto* miss = std::get_if<ReadMiss>(&outcome.value());
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->offset, 0);
    EXPECT_EQ(miss->length, 100);
}

TEST_F(ReadIndexFixture, MissBoundedByNextIndexedEntry) {
    index.insertFromStorage(kSeg, 500, BufChain(seq(100)));
    auto outcome = index.read(kSeg, 0, 10000, 1000, 0);
    auto* miss = std::get_if<ReadMiss>(&outcome.value());
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->offset, 0);
    EXPECT_EQ(miss->length, 500);  // stop at the indexed entry
}

TEST_F(ReadIndexFixture, InsertFromStorageThenHit) {
    ASSERT_TRUE(index.insertFromStorage(kSeg, 0, BufChain(seq(100))).isOk());
    auto outcome = index.read(kSeg, 0, 100, 1000, 0);
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.toBytes(), seq(100));
}

TEST_F(ReadIndexFixture, InsertFromStorageDoesNotOverwriteIndexed) {
    index.insertFromStorage(kSeg, 50, BufChain(seq(50, 99)));
    // Overlapping fetch: only the gap [0,50) should be indexed.
    ASSERT_TRUE(index.insertFromStorage(kSeg, 0, BufChain(seq(100))).isOk());
    auto outcome = index.read(kSeg, 50, 50, 100, 0);
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.toBytes(), seq(50, 99));  // original entry intact
}

TEST_F(ReadIndexFixture, InsertFromStorageTrimsAgainstFloorEntry) {
    // Pre-existing entry [50, 100). A fetch that lands [0, 80) overlaps it
    // from below: only the gap [0, 50) may be indexed. (Regression: the old
    // code trimmed only against the ceiling entry, so the overlapping tail
    // of the floor entry double-indexed bytes 50..79.)
    ASSERT_TRUE(index.insertFromStorage(kSeg, 50, BufChain(seq(50, 50))).isOk());
    ASSERT_EQ(index.indexedBytes(), 50u);
    ASSERT_TRUE(index.insertFromStorage(kSeg, 0, BufChain(seq(80))).isOk());
    EXPECT_EQ(index.indexedBytes(), 100u);  // not 130: no double-indexing

    auto head = index.read(kSeg, 0, 50, 100, 0);
    auto* hitHead = std::get_if<ReadHit>(&head.value());
    ASSERT_NE(hitHead, nullptr);
    EXPECT_EQ(hitHead->data.toBytes(), seq(50));
    auto tail = index.read(kSeg, 50, 50, 100, 0);
    auto* hitTail = std::get_if<ReadHit>(&tail.value());
    ASSERT_NE(hitTail, nullptr);
    EXPECT_EQ(hitTail->data.toBytes(), seq(50, 50));
}

TEST_F(ReadIndexFixture, InsertFromStorageStartingInsideFloorEntry) {
    // Existing [0, 60); a fetch [40, 100) starts inside it. Bytes 40..59
    // must be skipped, only [60, 100) indexed.
    ASSERT_TRUE(index.insertFromStorage(kSeg, 0, BufChain(seq(60))).isOk());
    ASSERT_TRUE(index.insertFromStorage(kSeg, 40, BufChain(seq(60, 40))).isOk());
    EXPECT_EQ(index.indexedBytes(), 100u);
    auto outcome = index.read(kSeg, 60, 40, 100, 0);
    auto* hit = std::get_if<ReadHit>(&outcome.value());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data.toBytes(), seq(40, 60));
}

TEST_F(ReadIndexFixture, InsertFromStorageFillsGapsAroundExistingEntry) {
    // Existing [40, 60); a fetch [0, 100) straddles it. Both gaps fill,
    // the resident entry stays, and every byte is indexed exactly once.
    ASSERT_TRUE(index.insertFromStorage(kSeg, 40, BufChain(seq(20, 40))).isOk());
    ASSERT_TRUE(index.insertFromStorage(kSeg, 0, BufChain(seq(100))).isOk());
    EXPECT_EQ(index.indexedBytes(), 100u);
    int64_t offset = 0;
    Bytes all;
    while (offset < 100) {
        auto outcome = index.read(kSeg, offset, 100 - offset, 100, 0);
        auto* hit = std::get_if<ReadHit>(&outcome.value());
        ASSERT_NE(hit, nullptr);
        ASSERT_FALSE(hit->data.empty());
        offset += static_cast<int64_t>(hit->data.size());
        pravega::append(all, hit->data.toBytes());
    }
    EXPECT_EQ(all, seq(100));
}

TEST_F(ReadIndexFixture, TruncatedReadRejected) {
    index.append(kSeg, 0, BufChain(seq(100)));
    auto outcome = index.read(kSeg, 10, 10, 100, /*startOffset=*/50);
    EXPECT_EQ(outcome.code(), Err::Truncated);
}

TEST_F(ReadIndexFixture, BadOffsetRejected) {
    auto outcome = index.read(kSeg, 101, 10, 100, 0);
    EXPECT_EQ(outcome.code(), Err::BadOffset);
}

TEST_F(ReadIndexFixture, UnknownSegmentRejected) {
    EXPECT_EQ(index.read(999, 0, 10, 100, 0).code(), Err::NotFound);
    EXPECT_EQ(index.append(999, 0, BufChain(seq(1))).code(), Err::NotFound);
}

TEST_F(ReadIndexFixture, TruncateDropsCoveredEntries) {
    index.append(kSeg, 0, BufChain(seq(250)));    // splits into entries
    index.append(kSeg, 250, BufChain(seq(250)));
    uint64_t before = cache.storedBytes();
    index.truncate(kSeg, 256);  // first entry (0..255) fully covered
    EXPECT_LT(cache.storedBytes(), before);
    EXPECT_LT(index.indexedBytes(), 500u);
}

TEST_F(ReadIndexFixture, RemoveSegmentFreesCache) {
    index.append(kSeg, 0, BufChain(seq(300)));
    EXPECT_GT(cache.storedBytes(), 0u);
    index.removeSegment(kSeg);
    EXPECT_EQ(cache.storedBytes(), 0u);
    EXPECT_EQ(index.indexedBytes(), 0u);
}

TEST_F(ReadIndexFixture, EvictionOnlyBelowStorageWatermark) {
    // Fill most of the 8 KB cache with one segment; nothing is in LTS, so
    // the cache policy must evict NOTHING.
    for (int i = 0; i < 28; ++i) {
        ASSERT_TRUE(index.append(kSeg, i * 256, BufChain(seq(256))).isOk());
    }
    EXPECT_GT(cache.utilization(), 0.8);
    EXPECT_EQ(index.applyCachePolicy(), 0);

    // Mark the first half durable in LTS: now eviction may trim it.
    index.setStorageLength(kSeg, 14 * 256);
    int evicted = index.applyCachePolicy();
    EXPECT_GT(evicted, 0);
    // Evicted data must come back as a miss (fetchable from LTS)...
    auto outcome = index.read(kSeg, 0, 100, 28 * 256, 0);
    ASSERT_TRUE(outcome.isOk());
    // ...while tail data (beyond the watermark) must still be resident.
    auto tail = index.read(kSeg, 27 * 256, 256, 28 * 256, 0);
    ASSERT_TRUE(tail.isOk());
    EXPECT_TRUE(std::holds_alternative<ReadHit>(tail.value()));
}

TEST_F(ReadIndexFixture, CacheFullAppendEvictsAndContinues) {
    // Make everything durable as we go so eviction is allowed, then write
    // far more than the cache holds: appends must keep succeeding.
    for (int i = 0; i < 128; ++i) {
        index.setStorageLength(kSeg, i * 256);
        ASSERT_TRUE(index.append(kSeg, i * 256, BufChain(seq(256))).isOk()) << i;
    }
    EXPECT_LE(cache.storedBytes(), cache.capacityBytes());
}

}  // namespace
}  // namespace pravega::segmentstore
