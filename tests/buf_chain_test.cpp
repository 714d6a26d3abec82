// BufChain unit tests: fragment-boundary slicing, zero-copy aliasing,
// linearize/copy-out correctness, trim bookkeeping, copy-counter accounting,
// and the eviction-vs-in-flight-flush lifetime contract (run under ASan via
// scripts/check.sh, where a refcount bug becomes a hard use-after-free).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "common/buf_chain.h"
#include "common/buf_stats.h"
#include "segmentstore/cache.h"

namespace pravega {
namespace {

Bytes bytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string str(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// A chain of one fragment per input string.
BufChain chainOf(std::initializer_list<std::string> parts) {
    BufChain c;
    for (const auto& p : parts) c.append(SharedBuf(bytesOf(p)));
    return c;
}

TEST(BufChainTest, AppendAndToBytes) {
    BufChain c = chainOf({"hello", " ", "world"});
    EXPECT_EQ(c.size(), 11u);
    EXPECT_EQ(c.fragmentCount(), 3u);
    EXPECT_EQ(str(c.toBytes()), "hello world");
}

TEST(BufChainTest, EmptyFragmentsAreSkipped) {
    BufChain c;
    c.append(SharedBuf(Bytes{}));
    c.append(SharedBuf(bytesOf("x")));
    c.append(SharedBuf(Bytes{}));
    EXPECT_EQ(c.fragmentCount(), 1u);
    EXPECT_EQ(c.size(), 1u);
}

TEST(BufChainTest, ShareAcrossFragmentBoundaries) {
    BufChain c = chainOf({"abcde", "fghij", "klmno"});
    // Slice straddling all three fragments.
    BufChain mid = c.share(3, 9);
    EXPECT_EQ(str(mid.toBytes()), "defghijkl");
    // Slice exactly on a fragment boundary.
    BufChain second = c.share(5, 5);
    EXPECT_EQ(second.fragmentCount(), 1u);
    EXPECT_EQ(str(second.toBytes()), "fghij");
    // Slice ending exactly at the chain end, and a clamped overrun.
    EXPECT_EQ(str(c.share(10, 5).toBytes()), "klmno");
    EXPECT_EQ(str(c.share(10, 500).toBytes()), "klmno");
    EXPECT_EQ(c.share(15, 5).size(), 0u);
}

TEST(BufChainTest, ShareIsZeroCopyAliasOfSourceBytes) {
    BufChain c = chainOf({"abcde", "fghij"});
    BufChain slice = c.share(2, 6);  // "cdefgh"
    // Same underlying storage: fragment data pointers alias the source.
    ASSERT_EQ(slice.fragmentCount(), 2u);
    EXPECT_EQ(slice.fragments()[0].view().data(), c.fragments()[0].view().data() + 2);
    EXPECT_EQ(slice.fragments()[1].view().data(), c.fragments()[1].view().data());
}

TEST(BufChainTest, ShareThenAppendDoesNotDisturbExistingSlices) {
    BufChain c = chainOf({"abcde"});
    BufChain slice = c.share(1, 3);  // "bcd"
    c.append(SharedBuf(bytesOf("fghij")));
    c.append(SharedBuf(bytesOf("klmno")));
    EXPECT_EQ(str(slice.toBytes()), "bcd");
    EXPECT_EQ(c.size(), 15u);
    // And a slice taken before the append still sees only the old extent.
    EXPECT_EQ(slice.size(), 3u);
}

TEST(BufChainTest, TrimFrontAcrossFragments) {
    BufChain c = chainOf({"abcde", "fghij", "klmno"});
    c.trimFront(0);
    EXPECT_EQ(c.size(), 15u);
    c.trimFront(7);  // drops "abcde" and "fg"
    EXPECT_EQ(c.size(), 8u);
    EXPECT_EQ(str(c.toBytes()), "hijklmno");
    c.trimFront(8);
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.fragmentCount(), 0u);
}

TEST(BufChainTest, TrimBackAcrossFragments) {
    BufChain c = chainOf({"abcde", "fghij"});
    c.trimBack(7);  // drops "fghij" and "de"
    EXPECT_EQ(str(c.toBytes()), "abc");
    c.trimBack(3);
    EXPECT_TRUE(c.empty());
}

TEST(BufChainTest, LinearizeMultiFragment) {
    BufChain c = chainOf({"abc", "def", "g"});
    SharedBuf flat = c.linearize();
    EXPECT_EQ(flat.size(), 7u);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(flat.view().data()), 7), "abcdefg");
}

TEST(BufChainTest, LinearizeSingleFragmentIsIdentity) {
    SharedBuf buf(bytesOf("payload"));
    BufChain c(buf);
    uint64_t before = bufstats::copyOps;
    SharedBuf flat = c.linearize();
    // Same storage, no copy recorded.
    EXPECT_EQ(flat.view().data(), buf.view().data());
    EXPECT_EQ(bufstats::copyOps, before);
}

TEST(BufChainTest, PeekU32AndCopyOut) {
    Bytes framed;
    uint32_t len = 0xAABBCCDD;
    framed.resize(4);
    std::memcpy(framed.data(), &len, 4);
    BufChain c;
    // Header split across two fragments — peek must gather.
    c.append(SharedBuf(Bytes(framed.begin(), framed.begin() + 2)));
    c.append(SharedBuf(Bytes(framed.begin() + 2, framed.end())));
    c.append(SharedBuf(bytesOf("body")));
    uint32_t got = 0;
    ASSERT_TRUE(c.peekU32(0, got));
    EXPECT_EQ(got, len);
    uint32_t partial = 0;
    EXPECT_FALSE(c.peekU32(5, partial));  // only 3 bytes left past pos 5

    uint8_t out[4] = {};
    c.copyOut(4, 4, out);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(out), 4), "body");
}

TEST(BufChainTest, CopyCountersTrackOnlyCopyBoundaries) {
    bufstats::reset();
    SharedBuf src(bytesOf("0123456789"));

    BufChain c(src);              // ref share: no copy
    c.append(src.slice(0, 5));    // ref share: no copy
    BufChain s = c.share(2, 8);   // ref share: no copy
    s.trimFront(1);               // bookkeeping only
    EXPECT_EQ(bufstats::bytesCopied, 0u);
    EXPECT_EQ(bufstats::copyOps, 0u);

    c.appendCopy(BytesView(src.view().data(), 3));  // 3 bytes copied
    EXPECT_EQ(bufstats::bytesCopied, 3u);
    (void)c.toBytes();  // 18 bytes copied (10 + 5 + 3)
    EXPECT_EQ(bufstats::bytesCopied, 21u);
    EXPECT_EQ(bufstats::copyOps, 2u);
    bufstats::reset();
}

// The flush-vs-eviction lifetime contract: a StorageWriter flush holds
// BufChain shares of read-index entry payloads. If the cache entry (or the
// original chain) is dropped while the flush is in flight, the shared
// fragments must keep the bytes alive. Under ASan a refcount bug here is a
// use-after-free, not a flaky value check.
TEST(BufChainTest, InFlightFlushSurvivesSourceRelease) {
    BufChain flushAgg;
    {
        // Entry payloads scoped so their owning handles die before the read.
        BufChain entry1(SharedBuf(bytesOf(std::string(5000, 'a'))));
        BufChain entry2(SharedBuf(bytesOf(std::string(3000, 'b'))));
        flushAgg.append(entry1.share(4000, 1000));  // tail of entry1
        flushAgg.append(entry2.share(0, 3000));
        entry1.clear();
        entry2.clear();
    }
    // Also push the source bytes out of a real BlockCache to mimic eviction
    // pressure racing the flush (the cache owns its own copies, so this
    // must not matter — the chain's refcounts are what keep bytes alive).
    segmentstore::BlockCache cache({.blockSize = 1024, .blocksPerBuffer = 8, .maxBuffers = 2});
    auto addr = cache.insert(flushAgg);
    ASSERT_TRUE(addr.isOk());
    ASSERT_TRUE(cache.remove(addr.value()).isOk());

    Bytes flat = flushAgg.toBytes();
    ASSERT_EQ(flat.size(), 4000u);
    EXPECT_TRUE(std::all_of(flat.begin(), flat.begin() + 1000, [](uint8_t b) { return b == 'a'; }));
    EXPECT_TRUE(std::all_of(flat.begin() + 1000, flat.end(), [](uint8_t b) { return b == 'b'; }));
}

TEST(BufChainTest, CacheChainInsertAndRangedGet) {
    segmentstore::BlockCache cache({.blockSize = 64, .blocksPerBuffer = 8, .maxBuffers = 4});
    BufChain c = chainOf({std::string(100, 'x'), std::string(37, 'y'), std::string(200, 'z')});
    auto addr = cache.insert(c);
    ASSERT_TRUE(addr.isOk());
    auto len = cache.entryLength(addr.value());
    ASSERT_TRUE(len.isOk());
    EXPECT_EQ(len.value(), 337u);

    // Ranged get straddling the fragment and block boundaries.
    auto mid = cache.get(addr.value(), 95, 10);
    ASSERT_TRUE(mid.isOk());
    EXPECT_EQ(str(mid.value().toBytes()), "xxxxxyyyyy");
    // Clamped past-the-end read.
    auto tail = cache.get(addr.value(), 330, 100);
    ASSERT_TRUE(tail.isOk());
    EXPECT_EQ(tail.value().size(), 7u);
    // Full get equals the chain bytes.
    auto all = cache.get(addr.value());
    ASSERT_TRUE(all.isOk());
    EXPECT_EQ(all.value().toBytes(), c.toBytes());
}

}  // namespace
}  // namespace pravega
