// Tests for the Fig 4 block cache: chained entries, O(1) appends, per-
// buffer free lists, buffer exhaustion, a randomized property check
// against a reference map, and a differential check against a cache that
// copies bytes into its blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <vector>

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
    EXPECT_EQ(cache.get(addr.value()).value().toBytes(), data);
    EXPECT_EQ(cache.entryLength(addr.value()).value(), 10u);
    EXPECT_EQ(cache.usedBlocks(), 1u);
}

TEST(BlockCacheTest, EntrySpanningMultipleBlocks) {
    BlockCache cache(smallConfig());
    Bytes data = pattern(200);  // 4 blocks at 64B
    auto addr = cache.insert(BufChain(data));
    ASSERT_TRUE(addr.isOk());
    EXPECT_EQ(cache.get(addr.value()).value().toBytes(), data);
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
    EXPECT_EQ(cache.get(addr2).value().toBytes(), expected);
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
    EXPECT_EQ(cache.get(addr).value().toBytes(), expected);
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
    ASSERT_EQ(cache.get(addr).value().toBytes(), whole);
    for (uint64_t off = 0; off <= whole.size() + 2; ++off) {
        for (uint64_t len : {uint64_t{0}, uint64_t{1}, uint64_t{13}, uint64_t{64}, uint64_t{65},
                             uint64_t{200}, UINT64_MAX}) {
            const size_t from = std::min<size_t>(off, whole.size());
            const size_t n = static_cast<size_t>(std::min<uint64_t>(len, whole.size() - from));
            Bytes want(whole.begin() + static_cast<std::ptrdiff_t>(from),
                       whole.begin() + static_cast<std::ptrdiff_t>(from + n));
            EXPECT_EQ(cache.get(addr, off, len).value().toBytes(), want) << off << "+" << len;
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
        EXPECT_EQ(got.value().toBytes(), data);
        totalBytes += data.size();
    }
    EXPECT_EQ(cache.storedBytes(), totalBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockCachePropertyTest,
                         ::testing::Values(1, 7, 13, 99, 12345, 777777));

/// The block cache as it was before entries held slices: the same block
/// accounting, with every byte copied into 4 KB-style blocks of
/// pre-allocated buffers and copied out again by get(). The reference the
/// slice-holding BlockCache must match op for op.
class CopyingBlockCache {
public:
    explicit CopyingBlockCache(BlockCache::Config cfg)
        : cfg_(cfg), blockBits_(static_cast<uint32_t>(std::countr_zero(cfg.blocksPerBuffer))) {
        inSpaceQueue_.assign(cfg_.maxBuffers, false);
    }

    Result<CacheAddress> insert(const BufChain& data) {
        auto first = allocBlock();
        if (!first) return first.status();
        auto last = append(first.value(), data);
        if (!last) remove(first.value());
        return last;
    }

    Result<CacheAddress> append(CacheAddress address, const BufChain& data) {
        if (!valid(address)) return Status(Err::InvalidArgument, "bad cache address");
        CacheAddress last = address;
        for (const auto& frag : data.fragments()) {
            BytesView rest = frag.view();
            while (!rest.empty()) {
                if (meta(last).length == cfg_.blockSize) {
                    auto blk = allocBlock();
                    if (!blk) {
                        while (last != address) {
                            CacheAddress prev = meta(last).prev;
                            storedBytes_ -= meta(last).length;
                            freeBlock(last);
                            last = prev;
                        }
                        return blk.status();
                    }
                    meta(blk.value()).prev = last;
                    last = blk.value();
                }
                Meta& m = meta(last);
                size_t n = std::min<size_t>(cfg_.blockSize - m.length, rest.size());
                std::memcpy(blockData(last) + m.length, rest.data(), n);
                m.length += static_cast<uint32_t>(n);
                storedBytes_ += n;
                rest = rest.subspan(n);
            }
        }
        return last;
    }

    Result<Bytes> get(CacheAddress address, uint64_t offset, uint64_t length) {
        if (!valid(address)) return Status(Err::InvalidArgument, "bad cache address");
        uint64_t total = entryLength(address).value();
        offset = std::min(offset, total);
        length = std::min(length, total - offset);
        Bytes out(static_cast<size_t>(length));
        uint64_t end = total;
        for (CacheAddress a = address; a != kInvalidAddress && end > offset; a = meta(a).prev) {
            const uint64_t start = end - meta(a).length;
            const uint64_t lo = std::max(start, offset);
            const uint64_t hi = std::min(end, offset + length);
            if (lo < hi) {
                std::memcpy(out.data() + (lo - offset), blockData(a) + (lo - start),
                            static_cast<size_t>(hi - lo));
            }
            end = start;
        }
        return out;
    }

    Result<uint64_t> entryLength(CacheAddress address) {
        if (!valid(address)) return Status(Err::InvalidArgument, "bad cache address");
        uint64_t total = 0;
        for (CacheAddress a = address; a != kInvalidAddress; a = meta(a).prev) total += meta(a).length;
        return total;
    }

    Status remove(CacheAddress address) {
        if (!valid(address)) return Status(Err::InvalidArgument, "bad cache address");
        for (CacheAddress a = address; a != kInvalidAddress;) {
            CacheAddress prev = meta(a).prev;
            storedBytes_ -= meta(a).length;
            freeBlock(a);
            a = prev;
        }
        return Status::ok();
    }

    uint32_t usedBlocks() const { return usedBlocks_; }
    uint32_t allocatedBuffers() const { return static_cast<uint32_t>(buffers_.size()); }
    uint64_t storedBytes() const { return storedBytes_; }
    double utilization() const {
        return static_cast<double>(usedBlocks_) /
               (static_cast<double>(cfg_.maxBuffers) * cfg_.blocksPerBuffer);
    }

private:
    struct Meta {
        bool used = false;
        uint32_t length = 0;
        CacheAddress prev = kInvalidAddress;
        uint32_t nextFree = UINT32_MAX;
    };
    struct Buffer {
        std::unique_ptr<uint8_t[]> data;
        std::vector<Meta> blocks;
        uint32_t freeHead = UINT32_MAX;
        uint32_t freeCount = 0;
    };

    uint32_t bufferOf(CacheAddress a) const { return a >> blockBits_; }
    uint32_t blockOf(CacheAddress a) const { return a & ((1u << blockBits_) - 1); }
    bool valid(CacheAddress a) const {
        return a != kInvalidAddress && bufferOf(a) < buffers_.size() &&
               buffers_[bufferOf(a)].blocks[blockOf(a)].used;
    }
    Meta& meta(CacheAddress a) { return buffers_[bufferOf(a)].blocks[blockOf(a)]; }
    uint8_t* blockData(CacheAddress a) {
        return buffers_[bufferOf(a)].data.get() + size_t{blockOf(a)} * cfg_.blockSize;
    }

    Result<CacheAddress> allocBlock() {
        while (!buffersWithSpace_.empty()) {
            uint32_t bufId = buffersWithSpace_.front();
            Buffer& buf = buffers_[bufId];
            if (buf.freeHead == UINT32_MAX) {
                buffersWithSpace_.pop_front();
                inSpaceQueue_[bufId] = false;
                continue;
            }
            uint32_t blk = buf.freeHead;
            Meta& m = buf.blocks[blk];
            buf.freeHead = m.nextFree;
            --buf.freeCount;
            m = Meta{};
            m.used = true;
            ++usedBlocks_;
            if (buf.freeCount == 0) {
                buffersWithSpace_.pop_front();
                inSpaceQueue_[bufId] = false;
            }
            return (bufId << blockBits_) | blk;
        }
        if (buffers_.size() >= cfg_.maxBuffers) return Status(Err::CacheFull, "all buffers full");
        uint32_t bufId = static_cast<uint32_t>(buffers_.size());
        Buffer buf;
        buf.data = std::make_unique<uint8_t[]>(size_t{cfg_.blocksPerBuffer} * cfg_.blockSize);
        buf.blocks.resize(cfg_.blocksPerBuffer);
        for (uint32_t i = 0; i < cfg_.blocksPerBuffer; ++i) {
            buf.blocks[i].nextFree = (i + 1 < cfg_.blocksPerBuffer) ? i + 1 : UINT32_MAX;
        }
        buf.freeHead = 0;
        buf.freeCount = cfg_.blocksPerBuffer;
        buffers_.push_back(std::move(buf));
        buffersWithSpace_.push_back(bufId);
        inSpaceQueue_[bufId] = true;
        return allocBlock();
    }

    void freeBlock(CacheAddress a) {
        uint32_t bufId = bufferOf(a);
        Buffer& buf = buffers_[bufId];
        Meta& m = buf.blocks[blockOf(a)];
        m = Meta{};
        m.nextFree = buf.freeHead;
        buf.freeHead = blockOf(a);
        ++buf.freeCount;
        --usedBlocks_;
        if (!inSpaceQueue_[bufId]) {
            buffersWithSpace_.push_back(bufId);
            inSpaceQueue_[bufId] = true;
        }
    }

    BlockCache::Config cfg_;
    uint32_t blockBits_;
    std::vector<Buffer> buffers_;
    std::deque<uint32_t> buffersWithSpace_;
    std::vector<bool> inSpaceQueue_;
    uint32_t usedBlocks_ = 0;
    uint64_t storedBytes_ = 0;
};

/// A random chain of 1-4 fragments, some of them slices of larger buffers.
BufChain randomChain(sim::Rng& rng, size_t maxBytes) {
    BufChain out;
    const uint64_t frags = 1 + rng.nextBounded(4);
    for (uint64_t i = 0; i < frags; ++i) {
        Bytes data(rng.nextBounded(maxBytes / frags + 1) + 8);
        for (auto& b : data) b = static_cast<uint8_t>(rng.next());
        const SharedBuf buf(std::move(data));
        const size_t skip = rng.nextBounded(4);
        out.append(buf.slice(skip, buf.size() - skip - rng.nextBounded(4)));
    }
    return out;
}

class BlockCacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockCacheDifferentialTest, MatchesCopyingCacheOpForOp) {
    // 48 blocks of 32 B: inserts, appends and fills reach CacheFull often,
    // in the middle of multi-fragment chains.
    BlockCache::Config cfg;
    cfg.blockSize = 32;
    cfg.blocksPerBuffer = 8;
    cfg.maxBuffers = 6;
    BlockCache cache(cfg);
    CopyingBlockCache ref(cfg);
    sim::Rng rng(GetParam());
    std::vector<CacheAddress> live;
    uint32_t fullInserts = 0;
    uint32_t fullAppends = 0;

    auto sameResult = [](const Result<CacheAddress>& got, const Result<CacheAddress>& want) {
        ASSERT_EQ(got.code(), want.code());
        if (want.isOk()) {
            ASSERT_EQ(got.value(), want.value());
        }
    };
    for (int op = 0; op < 3000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const uint64_t dice = rng.nextBounded(20);
        if (dice < 6 || live.empty()) {
            BufChain data = randomChain(rng, 200);
            auto got = cache.insert(data);
            auto want = ref.insert(data);
            sameResult(got, want);
            if (want.isOk()) live.push_back(want.value());
            fullInserts += want.code() == Err::CacheFull;
        } else if (dice < 12) {
            const size_t i = rng.nextBounded(live.size());
            BufChain data = randomChain(rng, 150);
            auto got = cache.append(live[i], data);
            auto want = ref.append(live[i], data);
            sameResult(got, want);
            if (want.isOk()) live[i] = want.value();
            fullAppends += want.code() == Err::CacheFull;
        } else if (dice < 16) {
            const CacheAddress a = live[rng.nextBounded(live.size())];
            const uint64_t len = ref.entryLength(a).value();
            const uint64_t off = rng.nextBounded(len + 3);
            const uint64_t n = rng.nextBounded(2) ? UINT64_MAX : rng.nextBounded(len + 3);
            auto got = cache.get(a, off, n);
            auto want = ref.get(a, off, n);
            ASSERT_TRUE(got.isOk());
            ASSERT_EQ(got.value().toBytes(), want.value());
        } else if (dice < 19) {
            const size_t i = rng.nextBounded(live.size());
            ASSERT_TRUE(cache.remove(live[i]).isOk());
            ASSERT_TRUE(ref.remove(live[i]).isOk());
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            // Fill to CacheFull with multi-fragment inserts.
            for (;;) {
                BufChain data = randomChain(rng, 400);
                auto got = cache.insert(data);
                auto want = ref.insert(data);
                sameResult(got, want);
                if (!want.isOk()) break;
                live.push_back(want.value());
            }
            ++fullInserts;
        }
        ASSERT_EQ(cache.usedBlocks(), ref.usedBlocks());
        ASSERT_EQ(cache.allocatedBuffers(), ref.allocatedBuffers());
        ASSERT_EQ(cache.storedBytes(), ref.storedBytes());
        ASSERT_EQ(cache.utilization(), ref.utilization());
        for (CacheAddress a : live) {
            ASSERT_EQ(cache.entryLength(a).value(), ref.entryLength(a).value());
            ASSERT_EQ(cache.get(a).value().toBytes(), ref.get(a, 0, UINT64_MAX).value());
        }
    }
    EXPECT_GT(fullInserts, 0u);
    EXPECT_GT(fullAppends, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockCacheDifferentialTest, ::testing::Values(1, 2, 3, 42, 2024));

TEST(BlockCacheTest, HoldsSlicesAndReleasesThemOnRemoveEvictionAndUnwind) {
    auto cfg = smallConfig();  // 32 blocks of 64 B
    BlockCache cache(cfg);
    const SharedBuf payload(pattern(200));

    // Stored and read back as slices of the payload: no copy.
    auto addr = cache.insert(BufChain(payload.slice(10, 100)));
    ASSERT_TRUE(addr.isOk());
    auto got = cache.get(addr.value(), 20, 30);
    ASSERT_EQ(got.value().fragmentCount(), 1u);
    EXPECT_EQ(got.value().fragments()[0].data(), payload.data() + 30);
    got = Status(Err::NotFound, "");  // drop the handed-out slice
    EXPECT_GT(payload.useCount(), 1u);

    // remove
    ASSERT_TRUE(cache.remove(addr.value()).isOk());
    EXPECT_EQ(payload.useCount(), 1u);

    // Eviction by the read index goes through remove; here a whole entry
    // of several appends is dropped at once.
    addr = cache.insert(BufChain(payload.slice(0, 50)));
    auto grown = cache.append(addr.value(), BufChain(payload.slice(50, 150)));
    ASSERT_TRUE(grown.isOk());
    ASSERT_TRUE(cache.remove(grown.value()).isOk());
    EXPECT_EQ(payload.useCount(), 1u);

    // CacheFull unwind: an insert that cannot fit keeps nothing, and an
    // append that cannot fit keeps only the bytes its old last block took.
    auto filler = cache.insert(BufChain(pattern(64 * 30)));
    ASSERT_TRUE(filler.isOk());
    BufChain big(payload);
    big.append(payload.slice(0, 100));
    const uint32_t held = payload.useCount();  // this handle and `big`'s two
    EXPECT_EQ(cache.insert(big).code(), Err::CacheFull);
    EXPECT_EQ(payload.useCount(), held);
    auto small = cache.insert(BufChain(pattern(10)));
    ASSERT_TRUE(small.isOk());
    EXPECT_EQ(cache.append(small.value(), big).code(), Err::CacheFull);
    EXPECT_EQ(cache.entryLength(small.value()).value(), 64u);
    EXPECT_EQ(payload.useCount(), held + 1);  // the 54 bytes that fit
    ASSERT_TRUE(cache.remove(small.value()).isOk());
    big.clear();
    EXPECT_EQ(payload.useCount(), 1u);
}
}  // namespace
}  // namespace pravega::segmentstore
